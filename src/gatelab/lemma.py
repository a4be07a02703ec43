"""Randomized sweeps of the lab's inequalities: what ``gatelab lemma`` checks.

Three sweeps rate the potential (``potential.quasi_entropy``) against its
bounds: the potential of two unit vectors, its move under a shared
orthogonal row map, and its move under paired maps (D, D^{-T}), the change
bound that ``trace``, ``scan`` and ``chain`` rely on.  A fourth rates the
explicit-constant bounds on the potential of the Walsh-Hadamard pair after
row operators P, Q (``verify_fourier_projection_bound``) on random
orthogonal projections.

Each sweep draws its trials from one generator in the order a per-trial
loop draws them: a trial's integers, then its normal draws in one call (a
call for n draws after a call for m gives the draws of one call for
m + n).  The normal draws of consecutive trials are packed into chunks
(``TrialChunks``: at most ``SWEEP_ELEMENTS`` floats and a ``SWEEP_SPLIT``-th
of the sweep's trials), and a chunk is evaluated stacked, one group of
equally shaped trials at a time.  Stacked LAPACK calls and matrix products
factor and multiply one matrix at a time, and numpy sums each row of a 2-D
array as it sums the same numbers raveled, so every report equals the
per-trial loop's bit for bit; the tests judge them against such loops
(``tests/oracles.py``).  A stack of pairs goes through ``potential``'s one
entry-term kernel at once (``stacked_quasi_entropy``), and every squared
norm is ``gates.squared_row_norms``, as in the walks.

``gatelab lemma`` calls the four sweeps through ``potential`` and
``bottleneck``, which load this module on first access, so that only
``lemma`` compiles it.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .builders import wht_matrix
from .gates import BLOCK_ELEMENTS
from .potential import _entry_terms, norm_products, quasi_entropy, squared_row_norms


def stacked_quasi_entropy(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``quasi_entropy`` of each pair of matrices in two equally shaped stacks
    (shape (..., rows, cols)), bit for bit: a pair of at most ``BLOCK_ELEMENTS``
    entries is one row block there, its terms (``potential._entry_terms``) make
    one row here, and numpy sums a row of a 2-D array as it sums the same
    numbers raveled.  Larger pairs go through ``quasi_entropy`` itself."""
    *stack, rows, cols = A.shape
    size = rows * cols
    if size > BLOCK_ELEMENTS:
        pairs = zip(A.reshape(-1, rows, cols), B.reshape(-1, rows, cols))
        return np.array([quasi_entropy(a, b) for a, b in pairs]).reshape(stack)
    terms = (A * B).reshape(-1, size)
    keep = _entry_terms(terms)
    values = terms.sum(axis=1)
    values *= -1.0  # exact negation; the sums' signs flip as ``-`` flips them
    if keep is not None:  # not on random draws; a pair without a kept product gives 0.0
        values[~keep.any(axis=1)] = 0.0
    return values.reshape(stack)


def _orthogonal_factor(G: np.ndarray) -> np.ndarray:
    """Q of the QR of each square matrix in ``G`` (one, or a stack), columns
    signed so that R has a positive diagonal; LAPACK factors a stack one
    matrix at a time, so each Q is its own call's bit for bit."""
    q, r = np.linalg.qr(G)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def random_orthogonal(rng: np.random.Generator, a: int) -> np.ndarray:
    """Haar-ish orthogonal matrix: QR of a Gaussian with sign-fixed diagonal."""
    return _orthogonal_factor(rng.standard_normal((a, a)))


# Sharp two-row unit-pair value: maximizing -2u*log2(u) over entry products
# u with u + u <= 1 peaks at u = 1/e, which beats the uniform pair's log2(2).
# For three or more rows the uniform value log2(a) is the true supremum.
UNIT_PAIR_SHARP_DIM2 = (2.0 / math.e) * math.log2(math.e)


def unit_pair_sharp_bound(a: int) -> float:
    """Sharp bound on |potential| of two unit vectors in R^a."""
    return max(math.log2(a), UNIT_PAIR_SHARP_DIM2)


@dataclass
class BoundSweepReport:
    """Worst slack over a randomized sweep of one potential inequality.

    ``worst_slack``/``violations`` rate instances against the nominal
    constant; where the nominal constant is known to be beatable at two rows,
    the ``corrected_*`` fields rate them against the sharp constant instead.
    """

    trials: int
    worst_slack: float
    violations: int
    worst_dim: int | None = None
    corrected_worst_slack: float | None = None
    corrected_violations: int | None = None


# A chunk holds at most SWEEP_ELEMENTS normal draws (one trial's, when it
# alone draws more) and at most a SWEEP_SPLIT-th of its sweep's trials, so
# that a short sweep holds few draws at a time.
SWEEP_ELEMENTS = 1 << 16
SWEEP_SPLIT = 8


class Chunk(NamedTuple):
    """Consecutive trials' draws: each trial's key (its shape, a tuple of
    ints) and the offset of its draws in ``buffer``, and the trials of each
    key in trial order, keys ascending."""

    keys: list[tuple[int, ...]]
    starts: np.ndarray
    groups: dict[tuple[int, ...], np.ndarray]
    buffer: np.ndarray


class TrialChunks:
    """Packs the normal draws of consecutive trials of a sweep of ``trials``
    into one buffer of ``elements`` floats (SWEEP_ELEMENTS if None) and hands
    each full chunk to ``evaluate(chunk)``."""

    def __init__(
        self, trials: int, evaluate: Callable[[Chunk], None], elements: int | None = None
    ) -> None:
        self.evaluate = evaluate
        self.limit = -(-trials // SWEEP_SPLIT)
        self.buffer = np.empty(SWEEP_ELEMENTS if elements is None else elements)
        self.keys: list[tuple[int, ...]] = []
        self.starts: list[int] = []
        self.used = 0

    def take(self, key: tuple[int, ...], size: int) -> np.ndarray:
        """Room for the next trial's ``size`` draws; a full chunk is evaluated first."""
        if self.used + size > len(self.buffer) or len(self.keys) == self.limit:
            self.flush()
            if size > len(self.buffer):
                self.buffer = np.empty(size)
        start = self.used
        self.keys.append(key)
        self.starts.append(start)
        self.used += size
        return self.buffer[start : start + size]

    def drop(self) -> None:
        """Forget the trial taken last."""
        self.keys.pop()
        self.used = self.starts.pop()

    def flush(self) -> None:
        if self.keys:
            groups: dict[tuple[int, ...], list[int]] = {}
            for trial, key in enumerate(self.keys):
                groups.setdefault(key, []).append(trial)
            groups = {key: np.array(trials) for key, trials in sorted(groups.items())}
            self.evaluate(Chunk(self.keys, np.array(self.starts), groups, self.buffer))
        self.keys, self.starts, self.used = [], [], 0


def stacked_draws(buffer: np.ndarray, starts: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """The (len(starts), *shape) stack of the draws at each offset in ``starts``."""
    size = math.prod(shape)
    return buffer[starts[:, None] + np.arange(size)].reshape(len(starts), *shape)


class _Rating:
    """Slacks rated chunk by chunk in trial order as ``min`` and ``index``
    rate the whole list: the first minimum, the dimension of its trial, and
    the count below -tol."""

    def __init__(self, tol: float) -> None:
        self.tol = tol
        self.worst = math.inf
        self.worst_dim: int | None = None
        self.violations = 0

    def add(self, slacks: np.ndarray, dims: list[int]) -> None:
        values = slacks.tolist()
        if not values:
            return
        worst = min(values if self.worst_dim is None else [self.worst, *values])
        if self.worst_dim is None or worst < self.worst:
            self.worst, self.worst_dim = worst, dims[values.index(worst)]
        self.violations += sum(1 for value in values if value < -self.tol)


def _report(trials: int, nominal: _Rating, corrected: _Rating | None = None) -> BoundSweepReport:
    return BoundSweepReport(
        trials=trials,
        worst_slack=nominal.worst,
        violations=nominal.violations,
        worst_dim=nominal.worst_dim,
        corrected_worst_slack=None if corrected is None else corrected.worst,
        corrected_violations=None if corrected is None else corrected.violations,
    )


def _dims(chunk: Chunk) -> tuple[list[int], np.ndarray]:
    """Each trial's row count a (its key's first entry) and log2(a)."""
    dims = [key[0] for key in chunk.keys]
    return dims, np.array([math.log2(a) for a in dims])


def sweep_unit_pair_bound(trials: int = 10_000, max_dim: int = 64, seed: int = 0) -> BoundSweepReport:
    """|potential of two unit vectors in R^a| against the nominal log2(a).

    The nominal constant is falsifiable at a = 2 (entry products of 1/e each
    give (2/e)*log2(e), about 1.0615); the corrected fields use the sharp
    two-row value and stay clean.
    """
    rng = np.random.default_rng(seed)
    nominal, sharp = _Rating(1e-9), _Rating(1e-9)

    def evaluate(chunk: Chunk) -> None:
        values = np.empty(len(chunk.keys))
        for (a,), rows in chunk.groups.items():
            xy = stacked_draws(chunk.buffer, chunk.starts[rows], (2, a))  # x, then y
            xy /= np.sqrt(squared_row_norms(xy))[..., None]
            values[rows] = stacked_quasi_entropy(xy[:, 0, :, None], xy[:, 1, :, None])
        np.abs(values, out=values)
        dims, log2_dims = _dims(chunk)
        nominal.add(log2_dims - values, dims)
        # unit_pair_sharp_bound of each trial
        sharp.add(np.maximum(log2_dims, UNIT_PAIR_SHARP_DIM2) - values, dims)

    chunks = TrialChunks(trials, evaluate)
    for _ in range(trials):
        a = int(rng.integers(2, max_dim + 1))
        rng.standard_normal(out=chunks.take((a,), 2 * a))
    chunks.flush()
    return _report(trials, nominal, sharp)


def _by_rows(groups: dict[tuple[int, ...], np.ndarray]) -> dict[int, list[tuple[int, np.ndarray]]]:
    """A chunk's (a, n) groups gathered by a: a -> [(n, trials), ...]."""
    by_rows: dict[int, list[tuple[int, np.ndarray]]] = {}
    for (a, n), rows in groups.items():
        by_rows.setdefault(a, []).append((n, rows))
    return by_rows


def sweep_orthogonal_change_bound(
    trials: int = 1000, max_rows: int = 16, max_cols: int = 16, seed: int = 0
) -> BoundSweepReport:
    """Potential move under a shared orthogonal row map vs |A|_F |B|_F log2(a).

    The nominal constant is falsifiable at a = 2.  Per column the move equals
    the column-norm product times a difference of two unit-pair potentials, so
    twice the sharp unit-pair constant times |A|_F |B|_F always holds; the
    corrected fields rate instances against that provable constant.
    """
    rng = np.random.default_rng(seed)
    nominal, sharp = _Rating(1e-7), _Rating(1e-7)

    def evaluate(chunk: Chunk) -> None:
        potentials = np.empty((len(chunk.keys), 2))
        squares = np.empty((len(chunk.keys), 2))
        for a, groups in _by_rows(chunk.groups).items():
            # each trial draws A and B (a x n each), then the Gaussian of U
            G_starts = [chunk.starts[rows] + 2 * a * n for n, rows in groups]
            U = _orthogonal_factor(stacked_draws(chunk.buffer, np.concatenate(G_starts), (a, a)))
            first = 0
            for n, rows in groups:
                AB = stacked_draws(chunk.buffer, chunk.starts[rows], (2, a, n))
                UAB = U[first : first + len(rows), None] @ AB
                first += len(rows)
                X = np.concatenate([AB, UAB], axis=1)  # A, B, U A, U B
                potentials[rows] = stacked_quasi_entropy(X[:, 0::2], X[:, 1::2])
                squares[rows] = squared_row_norms(AB.reshape(len(rows), 2, a * n))
        move = np.abs(potentials[:, 0] - potentials[:, 1])
        norms = norm_products(squares[:, 0], squares[:, 1])
        dims, log2_dims = _dims(chunk)
        nominal.add(norms * log2_dims - move, dims)
        sharp.add(norms * 2.0 * np.maximum(log2_dims, UNIT_PAIR_SHARP_DIM2) - move, dims)

    chunks = TrialChunks(trials, evaluate)
    for _ in range(trials):
        a = int(rng.integers(2, max_rows + 1))
        n = int(rng.integers(1, max_cols + 1))
        rng.standard_normal(out=chunks.take((a, n), 2 * a * n + a * a))
    chunks.flush()
    return _report(trials, nominal, sharp)


# ``sweep_nonsingular_change_bound`` skips a draw of D whose smallest
# singular value is below MIN_SINGULAR_RATIO times its largest.
MIN_SINGULAR_RATIO = 1e-6


def sweep_nonsingular_change_bound(
    trials: int = 1000, max_rows: int = 16, max_cols: int = 16, seed: int = 0
) -> BoundSweepReport:
    """Potential move under paired maps (D, D^{-T}) vs the two-endpoint bound.

    This is the bound the tracing and scanning modules rely on; it has held
    under both randomized and adversarial search (it is tight but clean).
    A draw of D too close to singular is skipped, by its own SVD, before A
    and B are drawn.
    """
    rng = np.random.default_rng(seed)
    nominal = _Rating(1e-7)

    def evaluate(chunk: Chunk) -> None:
        potentials = np.empty((len(chunk.keys), 2))
        squares = np.empty((len(chunk.keys), 4))
        for a, groups in _by_rows(chunk.groups).items():
            # each trial draws D, then A and B (a x n each)
            D_starts = np.concatenate([chunk.starts[rows] for _, rows in groups])
            D = stacked_draws(chunk.buffer, D_starts, (a, a))
            D_inv = np.linalg.inv(D)
            first = 0
            for n, rows in groups:
                part = slice(first, first + len(rows))
                first += len(rows)
                AB = stacked_draws(chunk.buffer, chunk.starts[rows] + a * a, (2, a, n))
                X = np.concatenate(  # A, B, D A, D^{-T} B
                    [AB, D[part, None] @ AB[:, :1], D_inv[part, None].swapaxes(2, 3) @ AB[:, 1:]],
                    axis=1,
                )
                potentials[rows] = stacked_quasi_entropy(X[:, 0::2], X[:, 1::2])
                squares[rows] = squared_row_norms(X.reshape(len(rows), 4, a * n))
        move = np.abs(potentials[:, 0] - potentials[:, 1])
        before = norm_products(squares[:, 0], squares[:, 1])
        after = norm_products(squares[:, 2], squares[:, 3])
        dims, log2_dims = _dims(chunk)
        nominal.add((before + after) * log2_dims - move, dims)  # change_bound at a >= 2 rows

    chunks = TrialChunks(trials, evaluate)
    accepted = 0
    while accepted < trials:
        a = int(rng.integers(2, max_rows + 1))
        n = int(rng.integers(1, max_cols + 1))
        draws = chunks.take((a, n), a * a + 2 * a * n)
        D = rng.standard_normal(out=draws[: a * a]).reshape(a, a)
        svals = np.linalg.svd(D, compute_uv=False)
        if svals[-1] < MIN_SINGULAR_RATIO * svals[0]:
            chunks.drop()
            continue
        rng.standard_normal(out=draws[a * a :])
        accepted += 1
    chunks.flush()
    return _report(trials, nominal)


# Explicit constants for the potential of the transform after row operators.
# Lower direction: applying P, Q against the Walsh-Hadamard pair costs at most
# the deficiency traces times log2 n plus a squared-deficiency term with slope
# 30 and offset 147.  Upper direction (PSD contractions only): the identity
# pair's potential is at most the deficiency traces, plus the squared
# Frobenius deficiencies for the diagonal part, plus the squared deficiencies
# times log2 n for the off-diagonal part.
LOWER_SLOPE = 30.0
LOWER_OFFSET = 147.0


@dataclass
class FourierProjectionReport:
    n: int
    tr_p_hat: float
    tr_q_hat: float
    alpha2: float
    beta2: float
    lower_lhs: float
    lower_rhs: float
    lower_slack: float
    upper_lhs: float | None
    upper_rhs: float | None
    upper_slack: float | None


def _check_psd_contractions(name: str, X: np.ndarray, tol: float = 1e-8) -> None:
    """Raise ``ValueError`` at the first matrix of the stack ``X`` that is not
    symmetric within ``tol`` or not a PSD contraction."""
    asymmetry = np.abs(X - X.transpose(0, 2, 1)).max(axis=(1, 2))
    eigs = np.linalg.eigvalsh(X)
    for k in range(len(X)):
        if asymmetry[k] > tol:
            raise ValueError(f"{name} is not symmetric within {tol}")
        if eigs[k, 0] < -tol or eigs[k, -1] > 1.0 + tol:
            raise ValueError(
                f"{name} is not a PSD contraction: "
                f"eigenvalues in [{eigs[k, 0]:.3e}, {eigs[k, -1]:.3e}]"
            )


def _squared_norms(X: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(X[k]) ** 2`` for each matrix of the stack: the square
    root of the dot product, squared by ``pow`` (not by a product, which
    rounds differently)."""
    norms = np.sqrt(squared_row_norms(X.reshape(len(X), -1)))
    return np.array([x**2 for x in norms.tolist()])


def _projection_bounds(
    F: np.ndarray, P: np.ndarray, Q: np.ndarray, check_upper: bool
) -> dict[str, np.ndarray | None]:
    """Every field of ``FourierProjectionReport`` but n for each pair (P[k], Q[k])
    of two n x n stacks, F the n x n Walsh-Hadamard matrix; the upper-bound
    fields are None without ``check_upper``."""
    n = len(F)
    log_n = math.log2(n)
    p_hat = np.eye(n) - P
    q_hat = np.eye(n) - Q
    tr_p_hat = np.trace(p_hat, axis1=1, axis2=2)
    tr_q_hat = np.trace(q_hat, axis1=1, axis2=2)
    alpha2 = _squared_norms(p_hat)
    beta2 = _squared_norms(q_hat)

    lower_lhs = stacked_quasi_entropy(F @ P, F @ Q)
    lower_rhs = (
        n * log_n
        - (tr_p_hat + tr_q_hat) * log_n
        - (alpha2 + beta2) * (LOWER_OFFSET + LOWER_SLOPE * log_n)
    )

    upper_lhs = upper_rhs = upper_slack = None
    if check_upper:
        _check_psd_contractions("P", P)
        _check_psd_contractions("Q", Q)
        upper_lhs = stacked_quasi_entropy(P, Q)
        upper_rhs = tr_p_hat + tr_q_hat + alpha2 + beta2 + (alpha2 + beta2) * log_n
        upper_slack = upper_rhs - upper_lhs

    return {
        "tr_p_hat": tr_p_hat,
        "tr_q_hat": tr_q_hat,
        "alpha2": alpha2,
        "beta2": beta2,
        "lower_lhs": lower_lhs,
        "lower_rhs": lower_rhs,
        "lower_slack": lower_lhs - lower_rhs,
        "upper_lhs": upper_lhs,
        "upper_rhs": upper_rhs,
        "upper_slack": upper_slack,
    }


def verify_fourier_projection_bound(
    n: int,
    P: np.ndarray,
    Q: np.ndarray,
    check_upper: bool = True,
) -> FourierProjectionReport:
    """Evaluate both explicit-constant potential bounds for row operators P, Q.

    The lower bound (potential of the Walsh-Hadamard pair after applying P
    and Q) holds for arbitrary P, Q; the upper bound (potential of the pair
    (P, Q) itself) additionally requires both to be PSD contractions.
    """
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != (n, n) or Q.shape != (n, n):
        raise ValueError(f"P and Q must be {n}x{n}")
    bounds = _projection_bounds(wht_matrix(n), P[None], Q[None], check_upper)
    return FourierProjectionReport(
        n=n, **{name: None if v is None else float(v[0]) for name, v in bounds.items()}
    )


def _projections(basis: np.ndarray, rank: int) -> np.ndarray:
    """V V^T for V the first ``rank`` columns of each orthonormal basis."""
    V = basis[..., :rank]
    return V @ np.swapaxes(V, -1, -2)


def random_projection(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Random orthogonal projection of the given rank."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return _projections(basis, rank)


@dataclass
class ProjectionSweepReport:
    n: int
    trials: int
    worst_lower_slack: float
    worst_upper_slack: float
    violations: int


# A trial of ``sweep_fourier_projection_bound`` violates a bound when its
# slack is below -PROJ_SLACK_TOL.
PROJ_SLACK_TOL = 1e-6


def sweep_fourier_projection_bound(
    n: int, trials: int = 100, seed: int = 0
) -> ProjectionSweepReport:
    """Both bounds on random orthogonal-projection pairs of rank n - r, r <= n/2.

    The trials are drawn as a per-trial loop draws them and evaluated in
    stacked chunks (``TrialChunks``), bit for bit.
    """
    rng = np.random.default_rng(seed)
    F = wht_matrix(n)
    worst_lower = worst_upper = math.inf
    violations = 0

    def evaluate(chunk: Chunk) -> None:
        nonlocal worst_lower, worst_upper, violations
        # each trial draws the Gaussians of P, then of Q
        bases = np.linalg.qr(stacked_draws(chunk.buffer, chunk.starts, (2, n, n)))[0]
        pair = np.empty_like(bases)
        for (r_p, r_q), rows in chunk.groups.items():
            pair[rows, 0] = _projections(bases[rows, 0], n - r_p)
            pair[rows, 1] = _projections(bases[rows, 1], n - r_q)
        del bases  # before the evaluation's own temporaries
        bounds = _projection_bounds(F, pair[:, 0], pair[:, 1], True)
        lower, upper = bounds["lower_slack"].tolist(), bounds["upper_slack"].tolist()
        # the running min() of a per-trial loop, which keeps the first minimum
        worst_lower = min([worst_lower, *lower])
        worst_upper = min([worst_upper, *upper])
        violations += sum(
            1 for lo, up in zip(lower, upper) if lo < -PROJ_SLACK_TOL or up < -PROJ_SLACK_TOL
        )

    # the evaluation holds some ten arrays the size of its chunk's draws
    chunks = TrialChunks(trials, evaluate, SWEEP_ELEMENTS // 8)
    for _ in range(trials):
        r_p = int(rng.integers(1, n // 2 + 1))
        r_q = int(rng.integers(1, n // 2 + 1))
        rng.standard_normal(out=chunks.take((r_p, r_q), 2 * n * n))
    chunks.flush()
    return ProjectionSweepReport(
        n=n,
        trials=trials,
        worst_lower_slack=worst_lower,
        worst_upper_slack=worst_upper,
        violations=violations,
    )
