"""Quasi-entropy potential of matrix pairs and its trace along a trajectory.

For equally shaped A, B the potential is

    sum_ij -A(i,j)*B(i,j) * log2 |A(i,j)*B(i,j)|,

with zero products contributing zero.  Evaluated on (M, M^{-T}) it vanishes
at the identity, equals n*log2(n) at the Walsh-Hadamard matrix (every entry
product is 1/n), and is invariant under rescaling M, since the entry products
of M and M^{-T} are scale-free.

The complex variant groups adjacent column pairs, matching the interleaved
real embedding of complex matrices: the pair sum A(i,2j)B(i,2j) +
A(i,2j+1)B(i,2j+1) plays the role of a single entry product, and the value on
the real-embedded normalized DFT is n*log2(n/2).

The potential is a sum over rows.  A gate, or a window of gates, rewrites
only the rows I it touches, so the potential moves by exactly the change in
those rows' contribution (``row_contribs``), and by at most the change bound

    (|A_I before|_F |B_I before|_F + |A_I after|_F |B_I after|_F) * log2|I|

(``change_bound`` of two ``norm_products`` values).  ``trace_potential``
records both the per-step move and this bound; single-row (constant gate)
steps have |I| = 1, bound 0, and indeed leave the potential unchanged because
the scalings c and 1/c cancel in every entry product.

``squared_row_norms`` takes each squared norm as the dot product that
``np.matmul`` reaches through BLAS ``ddot``, the same one ``np.linalg.norm``
calls on a raveled block, and ``norm_products`` multiplies the square roots,
so a batch of blocks gives the products of one ``np.linalg.norm`` call per
block bit for bit.  (``einsum`` sums in another order and does not.)

The potential, every row contribution and every squared norm is a sum over
columns, so ``trace_potential`` walks the columns in panels
(``gates.column_panels``): each panel keeps its own row ledger and drift
guard and adds its moves and squared norms into per-gate sums, and the
bounds take their square roots at the end.  With one panel (n <= 512) every
number is the full-width walk's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .gates import (
    BLOCK_ELEMENTS,
    Block,
    Blocks,
    LayerStep,
    LinearAlgorithm,
    Workspace,
    column_panels,
    gather_rows,
    layer,
    panel_width,
    replay_layers,
)

# Entry products below this threshold are treated as exact zeros; keeps log2
# clear of subnormal underflow.
ZERO_PRODUCT = 1e-300


def _neg_p_log_p(p: np.ndarray) -> float:
    p = p[np.abs(p) >= ZERO_PRODUCT]
    if p.size == 0:
        return 0.0
    return float(-(p * np.log2(np.abs(p))).sum())


def _entry_terms(
    a: np.ndarray, b: np.ndarray, workspace: Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """p * log2|p| for every entry product p of (a, b), 0.0 where |p| <
    ZERO_PRODUCT (or p is NaN), and the mask of the entries kept; both are
    views into the workspace."""
    p, log = workspace.take("scratch", (2, *a.shape))
    keep, drop = workspace.take("masks", (2, *a.shape), bool)
    np.multiply(a, b, out=p)
    np.abs(p, out=log)
    np.greater_equal(log, ZERO_PRODUCT, out=keep)
    np.log2(log, out=log, where=keep)
    np.multiply(p, log, out=p, where=keep)
    np.copyto(p, 0.0, where=np.logical_not(keep, out=drop))
    return p, keep


def _row_blocks(A: np.ndarray) -> range:
    """Starts of the row blocks of at most ``BLOCK_ELEMENTS`` elements (one
    row when a row alone is wider); ``A[lo:lo + range.step]`` is a block."""
    return range(0, len(A), max(1, BLOCK_ELEMENTS // max(1, A.shape[1])))


def quasi_entropy(A: np.ndarray, B: np.ndarray, workspace: Workspace | None = None) -> float:
    """Potential of the pair (A, B); zero entry products contribute zero.

    A pair of more than ``BLOCK_ELEMENTS`` entries is summed in row blocks,
    through ``workspace`` (a fresh one if None), so it needs no full-size
    temporaries; its value can differ from the one-pass sum in the last bits.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    if A.size <= BLOCK_ELEMENTS:
        return _neg_p_log_p((A * B).ravel())
    if workspace is None:
        workspace = Workspace()
    A, B = A.reshape(len(A), -1), B.reshape(len(B), -1)
    blocks = _row_blocks(A)
    # Blocks without a kept entry add nothing, and the sum starts at -0.0,
    # the additive identity, so zero totals keep the one-pass sign: the
    # identity pair gives -0.0 and a pair with no kept entry 0.0.
    total = -0.0
    for lo in blocks:
        rows = slice(lo, lo + blocks.step)
        terms, keep = _entry_terms(A[rows], B[rows], workspace)
        if keep.any():
            total += float(terms.sum())
    return -total


def complex_quasi_entropy(A: np.ndarray, B: np.ndarray) -> float:
    """Column-paired potential matched to the interleaved real embedding."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    if A.ndim != 2 or A.shape[1] % 2:
        raise ValueError(f"need an even number of columns, got shape {A.shape}")
    p = A * B
    return _neg_p_log_p((p[:, 0::2] + p[:, 1::2]).ravel())


def squared_row_norms(X: np.ndarray) -> np.ndarray:
    """The squared 2-norm of every row of a 2-D array, whose square root is
    ``np.linalg.norm(row)``; a row holding the raveled rows of a block gives
    that block's |A_I|_F^2."""
    return np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]


def norm_products(x2: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """|X_r| * |Y_r| from the squared norms of ``squared_row_norms``: a
    block's |A_I|_F * |B_I|_F."""
    return np.sqrt(x2) * np.sqrt(y2)


def row_contribs(A: np.ndarray, B: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
    """Each row's share of the potential of (A, B), evaluated in row blocks.

    With a workspace the result is a view into it, valid until its next
    use; without one it is a fresh array.
    """
    out = np.empty(len(A)) if workspace is None else workspace.take("contribs", (len(A),))
    if workspace is None:
        workspace = Workspace()
    blocks = _row_blocks(A)
    for lo in blocks:
        rows = slice(lo, lo + blocks.step)
        np.sum(_entry_terms(A[rows], B[rows], workspace)[0], axis=1, out=out[rows])
    return np.negative(out, out=out)


def swap_contribs(
    ledger: np.ndarray, block: Block, new: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Store a block's new row contributions in the per-row ledger.

    Returns each unit's contribution before and after the block, in
    ``block.units`` order.
    """
    before = np.add.reduceat(ledger[block.rows], block.unit_starts)
    ledger[block.rows] = new
    return before, np.add.reduceat(new, block.unit_starts)


def change_bound(rows: int, before: float, after: float) -> float:
    """Bound on the potential move of a block of rows rewritten by one nonsingular map.

    ``before`` and ``after`` are the block products at the two endpoints; a
    single row cannot move the potential, so its bound is 0.
    """
    return (before + after) * math.log2(rows) if rows > 1 else 0.0


# The incremental potential is checked against an exact recomputation at
# least every RECOMPUTE_EVERY gates; a disagreement beyond DRIFT_TOL relative
# to the largest value or row-block contribution seen (the scale healthy
# float drift tracks) is an error.
RECOMPUTE_EVERY = 1000
DRIFT_TOL = 1e-7


@dataclass
class PotentialTrace:
    """Per-step potential values, moves, and two-row change bounds (index = step)."""

    values: list[float]
    per_step_delta: list[float]
    per_step_bound: list[float]
    touched_sets: list[tuple[int, ...]]


def _pair_squares(
    step: LayerStep, x: np.ndarray, y: np.ndarray, workspace: Workspace
) -> np.ndarray:
    """``squared_row_norms`` of each rotation's rows i and j of a block's rows
    x, raveled in that order, then of y's: a (2, rotations) array."""
    k, n = step.rot_gates.size, x.shape[1]
    rows = np.stack((step.rot_i, step.rot_j), axis=1).ravel()
    gathered = workspace.take("scratch", (2, 2 * k, n))
    gather_rows(x, rows, gathered[0])
    gather_rows(y, rows, gathered[1])
    return squared_row_norms(gathered.reshape(2 * k, 2 * n)).reshape(2, k)


def trace_potential(
    algorithm: LinearAlgorithm,
    P: np.ndarray | None = None,
    Q: np.ndarray | None = None,
) -> PotentialTrace:
    """Trace the projected potential along the trajectory.

    The walk is layered (``gates.replay_layers``), one column panel at a
    time, and each panel keeps a ledger of every row's contribution.  A
    gate's move is the change in its own rows' contribution, computed for a
    whole block at once and summed over the panels; a block of reflections
    (c = -1) carries its rows' entries, since negating both factors leaves
    every entry product bitwise unchanged.  Values are the initial potential
    plus a running sum of the moves in step order.  Bounds come from the
    touched rows' block products, in the gate's (i, j) row order, before and
    after the gate.

    Each panel's drift guard recomputes that panel's potential in full at a
    block boundary whenever the next block would take the gates applied
    since the last recheck past ``RECOMPUTE_EVERY``.  An incremental total
    that misses it by more than ``DRIFT_TOL`` raises ``ArithmeticError``.
    Values are not snapped to the recomputation: a block boundary is not a
    step.
    """
    phi, moves, bounds = _ledger_walk(algorithm, P, Q)
    values = np.cumsum(np.concatenate([[phi], moves]))
    gate_i, gate_j = algorithm.arrays.i.tolist(), algorithm.arrays.j.tolist()
    return PotentialTrace(
        values=values.tolist(),
        per_step_delta=[0.0] + np.abs(np.diff(values)).tolist(),
        per_step_bound=[0.0] + bounds.tolist(),
        touched_sets=[()] + [(i,) if j < 0 else (i, j) for i, j in zip(gate_i, gate_j)],
    )


def _ledger_walk(algorithm: LinearAlgorithm, P, Q) -> tuple[float, np.ndarray, np.ndarray]:
    """``trace_potential``'s walk: the initial potential, each gate's move and
    bound.  The panels, the layering and the workspace die with it, before
    the trace's lists are built."""
    n, m = algorithm.n, algorithm.m
    blocks = layer(algorithm, width=panel_width(n)).blocks
    workspace = Workspace()
    # sums over the panels start at -0.0, the additive identity, so one
    # panel gives its own numbers bit for bit
    phi = -0.0
    moves = np.full(m, -0.0)
    squares = np.zeros((4, m))  # each rotation's |A_I|^2, |B_I|^2 before it, then after
    for A, B in column_panels(n, P, Q):
        phi += _ledger_panel(blocks, A, B, workspace, moves, squares, m)
    before = norm_products(squares[0], squares[1])
    after = norm_products(squares[2], squares[3])
    return phi, moves, change_bound(2, before, after)  # 0 for constants: no squares


def _ledger_panel(
    blocks: Blocks,
    A: np.ndarray,
    B: np.ndarray,
    workspace: Workspace,
    moves: np.ndarray,
    squares: np.ndarray,
    m: int,
) -> float:
    """Walk one column panel: add its moves and squared pair norms, guard its
    incremental potential, and return its initial potential."""
    phi = quasi_entropy(A, B, workspace)
    ledger = row_contribs(A, B, workspace).copy()
    total = phi  # incremental potential of the panel, summed in layer order
    scale = max(1.0, abs(phi))
    unchecked = done = 0
    for k, (block, a0, b0, a1, b1) in enumerate(replay_layers(blocks, A, B, workspace)):
        (step,) = block.steps
        if not step.rot_gates.size and (step.c == -1.0).all():
            new = ledger[block.rows]
        else:
            new = row_contribs(a1, b1, workspace)
        before, after = swap_contribs(ledger, block, new)
        delta = after - before
        moves[block.units] += delta
        total += float(delta.sum())
        scale = max(scale, float(np.abs(before).max()), float(np.abs(after).max()))
        if step.rot_gates.size:
            squares[:2, step.rot_gates] += _pair_squares(step, a0, b0, workspace)
            squares[2:, step.rot_gates] += _pair_squares(step, a1, b1, workspace)

        unchecked += block.gates
        done += block.gates
        if k + 1 < len(blocks) and unchecked + blocks.gate_counts[k + 1] > RECOMPUTE_EVERY:
            exact = quasi_entropy(A, B, workspace)
            if abs(exact - total) > DRIFT_TOL * max(scale, abs(exact)):
                raise ArithmeticError(
                    f"incremental potential drifted by {abs(exact - total):.3e} "
                    f"after {done} of {m} gates"
                )
            unchecked = 0
    return phi


def random_orthogonal(rng: np.random.Generator, a: int) -> np.ndarray:
    """Haar-ish orthogonal matrix: QR of a Gaussian with sign-fixed diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((a, a)))
    return q * np.sign(np.diag(r))


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


def _tally(
    dims: list[int], slacks: list[float], tol: float, corrected: list[float] | None = None
) -> BoundSweepReport:
    """Report over per-trial slacks: the first minimum, its dimension, and the
    slacks below -tol; ``corrected`` slacks, if given, are rated the same way."""
    worst = min(slacks, default=math.inf)
    return BoundSweepReport(
        trials=len(slacks),
        worst_slack=worst,
        violations=sum(1 for s in slacks if s < -tol),
        worst_dim=dims[slacks.index(worst)] if slacks else None,
        corrected_worst_slack=None if corrected is None else min(corrected, default=math.inf),
        corrected_violations=None if corrected is None else sum(1 for s in corrected if s < -tol),
    )


def sweep_unit_pair_bound(trials: int = 10_000, max_dim: int = 64, seed: int = 0) -> BoundSweepReport:
    """|potential of two unit vectors in R^a| against the nominal log2(a).

    The nominal constant is falsifiable at a = 2 (entry products of 1/e each
    give (2/e)*log2(e), about 1.0615); the corrected fields use the sharp
    two-row value and stay clean.
    """
    rng = np.random.default_rng(seed)
    dims: list[int] = []
    slacks: list[float] = []
    corrected: list[float] = []
    for _ in range(trials):
        a = int(rng.integers(2, max_dim + 1))
        x = rng.standard_normal(a)
        y = rng.standard_normal(a)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        value = abs(quasi_entropy(x[:, None], y[:, None]))
        dims.append(a)
        slacks.append(math.log2(a) - value)
        corrected.append(unit_pair_sharp_bound(a) - value)
    return _tally(dims, slacks, 1e-9, corrected)


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
    dims: list[int] = []
    slacks: list[float] = []
    corrected: list[float] = []
    for _ in range(trials):
        a = int(rng.integers(2, max_rows + 1))
        n = int(rng.integers(1, max_cols + 1))
        A = rng.standard_normal((a, n))
        B = rng.standard_normal((a, n))
        U = random_orthogonal(rng, a)
        move = abs(quasi_entropy(A, B) - quasi_entropy(U @ A, U @ B))
        norms = np.linalg.norm(A) * np.linalg.norm(B)
        dims.append(a)
        slacks.append(norms * math.log2(a) - move)
        corrected.append(norms * 2.0 * unit_pair_sharp_bound(a) - move)
    return _tally(dims, slacks, 1e-7, corrected)


def sweep_nonsingular_change_bound(
    trials: int = 1000, max_rows: int = 16, max_cols: int = 16, seed: int = 0
) -> BoundSweepReport:
    """Potential move under paired maps (D, D^{-T}) vs the two-endpoint bound.

    This is the bound the tracing and scanning modules rely on; it has held
    under both randomized and adversarial search (it is tight but clean).
    """
    rng = np.random.default_rng(seed)
    dims: list[int] = []
    slacks: list[float] = []
    while len(slacks) < trials:
        a = int(rng.integers(2, max_rows + 1))
        n = int(rng.integers(1, max_cols + 1))
        D = rng.standard_normal((a, a))
        svals = np.linalg.svd(D, compute_uv=False)
        if svals[-1] < 1e-6 * svals[0]:
            continue
        A = rng.standard_normal((a, n))
        B = rng.standard_normal((a, n))
        DA = D @ A
        DinvTB = np.linalg.inv(D).T @ B
        move = abs(quasi_entropy(A, B) - quasi_entropy(DA, DinvTB))
        bound = change_bound(
            a,
            np.linalg.norm(A) * np.linalg.norm(B),
            np.linalg.norm(DA) * np.linalg.norm(DinvTB),
        )
        dims.append(a)
        slacks.append(bound - move)
    return _tally(dims, slacks, 1e-7)
