"""Independent dense oracles and per-step references used by the tests.

The dense oracles are computed from first principles with plain numpy:
closed forms for the reference transforms, dense gate matrices composed with
@, and brute-force potential evaluation.  They reuse none of the package's
replay paths, so an agreement between the two is a genuine dual-route check.
``build_random_reference`` is ``build_random`` drawing from numpy's own
``default_rng(seed)``, the judge of the numpy-free stream it draws from.
``spawned_normal_draws`` is the per-sample seeding that ``quantized`` derives
in bulk, and ``simulate_csv_reference`` the cell-by-cell rendering of the
``simulate`` CSV that the CLI streams from the touch events, and
``trace_csv_reference`` the joined ``trace`` CSV that it streams line by line.
``row_contribs_reference`` is the one-pass row contribution formula that the
row-blocked ``row_contribs`` must reproduce bit for bit, and the negated sum
of ``entry_terms_reference`` what ``quasi_entropy`` gives a one-block pair.
``assert_lemma_contract`` checks a ``lemma`` report against the exit-code
contract the README documents.  The ``*_sweep_reference`` functions are the
lemma sweeps as per-trial loops, one trial drawn and rated at a time, and
``verify_fourier_projection_bound_reference`` the projection bounds of one
pair (P, Q): the judges of the stacked, chunked sweeps bit for bit.

``apply_gate_reference`` applies one gate object to the rows of an array,
the judge of the compiled kernels (``gatelab.replay``, the layered walks
and ``VectorWalk``), and ``simulate_reference`` is ``simulate`` as a loop
over the gate objects with dense (m+1, n) accumulators, the judge of its
replay and of its filled cell grids bit for bit.

``matrices_at`` is the dense pair (M(t), M(t)^{-T}) replayed from the
identity, the judge of ``VectorWalk.row`` and of the dense checks.

The per-step references at the end walk the trajectory one gate at a time
through ``gatelab.replay`` from ``start_pair`` (the replay itself checked
against ``compose_dense``) and measure each row block with its own
``np.linalg.norm`` call, as the analyses did before they walked in layers: ``best_candidate_reference`` is the
sequential extraction scan (the rescan of ``extract_directions_reference``),
``window_products_reference`` the window products of the scan and the
chain, and ``trace_bounds_reference`` the per-gate change bounds of the
trace.  The layered analyses must match the last two bit for bit.
``validate_reference`` is ``validate`` as a dense check at every step: the
full residual product and an SVD after each gate.
``extract_directions_reference`` is the extraction loop that formed the
projections P and Q and rescanned every candidate in every round, and
``most_informative_cell_reference`` the quantized cell search that read
M(t)^{-T} z from a replay of both matrices.  ``extend_basis_reference``
completes an underflow system from a fresh stack of its vectors in every
slot, the judge of ``extend_basis`` bit for bit.

``extract_directions_exact`` is the greedy extraction in exact rational
arithmetic (standard library only), the judge of the selection rule.

``panel_instances`` draws programs, operators and a panel width for the
column-panel properties, which hold a multi-panel walk to the one-panel walk
of the same program within ``DRIFT_TOL`` (``within_drift``).
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from hypothesis import strategies as st

from gatelab.builders import wht_matrix
from gatelab.directions import DirectionSystem, ExtendedBasis, speedup_factor
from gatelab.gates import TrajectoryDiagnostics, replay
from gatelab import lemma
from gatelab.model import Constant, LinearAlgorithm, Rotation, touched
from gatelab.potential import DRIFT_TOL, ZERO_PRODUCT, change_bound, quasi_entropy
from gatelab.quantized import QuantizedRunStats


# Repeats are common in a small pool; the signed zeros, NaNs of either sign,
# infinities, subnormals and 1e308 each print in their own way, and 32.0 and
# the next float up sit either side of the default word budget.
CELL_VALUES = st.sampled_from(
    [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.5e-310,
     1e308, 1.0, 0.1, 32.0, 32.000000000000004]
)


@st.composite
def run_stats_events(draw, word_budget=st.just(32.0)):
    """``QuantizedRunStats`` of up to 40 steps on 1..16 rows: the n input
    rows, then one row or two distinct rows per step, each event with a mean
    and a maximum from ``CELL_VALUES``."""
    n = draw(st.integers(1, 16))
    steps, rows = [0] * n, list(range(n))
    for t in range(1, draw(st.integers(0, 40)) + 1):
        size = draw(st.integers(1, min(2, n)))
        touched = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
        steps += [t] * size
        rows += touched
    values = st.lists(CELL_VALUES, min_size=len(rows), max_size=len(rows))
    return QuantizedRunStats(
        epsilon=2.0**-10, sigma=1.0, samples=1, word_budget=draw(word_budget),
        steps=np.array(steps), rows=np.array(rows),
        event_bits=np.array(draw(values)), event_max=np.array(draw(values)),
    )


@st.composite
def panel_instances(draw):
    """(algorithm, R, width, P, Q): up to 40 gates on n = 5..16 rows, about
    half constants in +-[0.5, 2], a window size R, random P and Q, and an
    even panel width that cuts the n columns into 2 to 5 panels, the last one
    ragged (no even width does that for n = 4)."""
    n = draw(st.integers(5, 16))
    width = draw(st.sampled_from([w for w in range(2, n, 2) if n % w and -(-n // w) <= 5]))
    gates = []
    for _ in range(draw(st.integers(0, 40))):
        i = draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            sign = draw(st.sampled_from([-1.0, 1.0]))
            gates.append(Constant(i, sign * draw(st.floats(0.5, 2.0))))
        else:
            j = draw(st.integers(0, n - 2))
            gates.append(Rotation(i, j + (j >= i), draw(st.floats(-7, 7))))
    R = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    P = rng.standard_normal((n, n))
    Q = rng.standard_normal((n, n))
    return LinearAlgorithm(n, tuple(gates)), R, width, P, Q


def within_drift(got, want) -> bool:
    """Whether ``got`` is ``want`` within ``DRIFT_TOL`` relative to the largest
    magnitude in ``want`` (at least 1), entry by entry."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return got.shape == want.shape and bool((np.abs(got - want) <= DRIFT_TOL * scale).all())


def wht_sign_matrix(n: int) -> np.ndarray:
    F = np.empty((n, n))
    for k in range(n):
        for l in range(n):
            F[k, l] = -1.0 if bin(k & l).count("1") % 2 else 1.0
    return F / math.sqrt(n)


def dft_embedding_matrix(n: int) -> np.ndarray:
    N = n // 2
    E = np.empty((n, n))
    for k in range(N):
        for l in range(N):
            w = np.exp(-2j * np.pi * k * l / N) / math.sqrt(N)
            E[2 * k, 2 * l] = w.real
            E[2 * k, 2 * l + 1] = -w.imag
            E[2 * k + 1, 2 * l] = w.imag
            E[2 * k + 1, 2 * l + 1] = w.real
    return E


def gate_matrix(gate, n: int) -> np.ndarray:
    G = np.eye(n)
    if isinstance(gate, Rotation):
        c, s = math.cos(gate.theta), math.sin(gate.theta)
        G[gate.i, gate.i] = c
        G[gate.i, gate.j] = s
        G[gate.j, gate.i] = -s
        G[gate.j, gate.j] = c
    elif isinstance(gate, Constant):
        G[gate.i, gate.i] = gate.c
    else:
        raise TypeError(f"unknown gate {gate!r}")
    return G


def compose_dense(algorithm, t: int | None = None) -> np.ndarray:
    if t is None:
        t = algorithm.m
    M = np.eye(algorithm.n)
    for gate in algorithm.gates[:t]:
        M = gate_matrix(gate, algorithm.n) @ M
    return M


def compose_dense_inverse_transpose(algorithm, t: int | None = None) -> np.ndarray:
    """M(t)^{-T} as the product of the dense gates' inverse transposes."""
    if t is None:
        t = algorithm.m
    N = np.eye(algorithm.n)
    for gate in algorithm.gates[:t]:
        N = np.linalg.inv(gate_matrix(gate, algorithm.n)).T @ N
    return N


def start_pair(n: int, P=None, Q=None):
    """Fresh float copies of (P, Q), identity for None: the arrays that a
    replay of (M(t) P, M(t)^{-T} Q) starts from."""
    A = np.eye(n) if P is None else np.array(P, dtype=float)
    B = np.eye(n) if Q is None else np.array(Q, dtype=float)
    return A, B


def matrices_at(algorithm, t: int):
    """Dense (M(t), M(t)^{-T}), replayed from the identity: the judge of
    every single row that ``VectorWalk.row`` reads."""
    M, Minv_T = start_pair(algorithm.n)
    for _ in replay(algorithm, M, Minv_T, stop=t):
        pass
    return M, Minv_T


def apply_gate_reference(A: np.ndarray, gate, inverse_transpose: bool = False) -> None:
    """Apply one gate object to the rows of A in place, or its inverse
    transpose (1/c for a constant) with ``inverse_transpose``.

    A rotation takes ``math.cos``/``math.sin`` of its angle and forms
    cos*x_i + sin*x_j and (-sin)*x_i + cos*x_j from copies of both rows:
    the operations of the compiled kernels, read from the gate itself.
    """
    if isinstance(gate, Rotation):
        c, s = math.cos(gate.theta), math.sin(gate.theta)
        xi, xj = A[gate.i].copy(), A[gate.j].copy()
        A[gate.i] = c * xi + s * xj
        A[gate.j] = -s * xi + c * xj
    else:
        A[gate.i] *= (1.0 / gate.c) if inverse_transpose else gate.c


class DenseRunStats(NamedTuple):
    """``simulate``'s statistics as (m+1, n) cell grids."""

    mean_bits: np.ndarray
    max_abs: np.ndarray
    overflow_flags: np.ndarray


def simulate_reference(
    algorithm, epsilon, sigma=1.0, samples=1000, seed=0, word_budget=32.0, chunk=None
):
    """``simulate`` as a loop over the gate objects, ``chunk`` samples at a
    time (all of them for None): the drawn inputs are rounded and scored,
    then each gate is applied by ``apply_gate_reference`` and the rows it
    touched are rounded and scored again, with fresh temporaries."""
    n, m = algorithm.n, algorithm.m
    chunk = chunk or samples
    bits_sum = np.zeros((m + 1, n))
    max_abs = np.zeros((m + 1, n))
    bits, top = np.empty(n), np.empty(n)
    for lo in range(0, samples, chunk):
        X = spawned_normal_draws(seed, lo, min(lo + chunk, samples), sigma, n)
        rows = range(n)
        for t in range(m + 1):
            if t:
                gate = algorithm.gates[t - 1]
                apply_gate_reference(X, gate)
                rows = touched(gate)
            for r in rows:
                X[r] = np.rint(X[r] / epsilon) * epsilon
                magnitude = np.abs(X[r])
                top[r] = magnitude.max()
                bits[r] = (np.log2(magnitude / epsilon + 1.0) + 1.0).sum()
            bits_sum[t] += bits
            np.maximum(max_abs[t], top, out=max_abs[t])
    mean_bits = bits_sum / samples
    return DenseRunStats(mean_bits, max_abs, mean_bits > word_budget)


def potential_brute(A: np.ndarray, B: np.ndarray) -> float:
    total = 0.0
    for a, b in zip(np.ravel(A), np.ravel(B)):
        p = a * b
        if p != 0.0:
            total -= p * math.log2(abs(p))
    return total


def entry_terms_reference(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """p * log2|p| of every entry product p of the pair in one pass, with
    full-size temporaries, 0.0 where |p| < ZERO_PRODUCT or p is NaN."""
    p = A * B
    log = np.abs(p)
    keep = log >= ZERO_PRODUCT
    np.log2(log, out=log, where=keep)
    p *= log
    np.copyto(p, 0.0, where=~keep)
    return p


def row_contribs_reference(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Each row's share of the potential in one pass over the whole pair:
    ``row_contribs`` as it was before row blocks."""
    return -entry_terms_reference(A, B).sum(axis=1)


def trace_csv_reference(trace) -> str:
    """The ``trace`` CSV as one string joined from a list of its lines."""
    lines = ["# schema_version=1", "t,phi,delta,bound,touched_i,touched_j"]
    columns = zip(trace.values, trace.per_step_delta, trace.per_step_bound, trace.touched_sets)
    for t, (phi, delta, bound, rows) in enumerate(columns):
        ti = str(rows[0]) if rows else ""
        tj = str(rows[1]) if len(rows) > 1 else ""
        lines.append(f"{t},{float(phi)!r},{float(delta)!r},{float(bound)!r},{ti},{tj}")
    return "\n".join(lines) + "\n"


def build_random_reference(n: int, m: int, seed: int, angle_only: bool = False):
    """``build_random``'s gates, drawn from ``np.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    gates = []
    for _ in range(m):
        if not angle_only and rng.random() < 0.25:
            i = int(rng.integers(n))
            c = 2.0 ** rng.uniform(-3.0, 3.0)
            if rng.random() < 0.5:
                c = -c
            gates.append(Constant(i, c))
        else:
            i = int(rng.integers(n))
            j = int(rng.integers(n - 1))
            if j >= i:
                j += 1
            gates.append(Rotation(i, j, float(rng.uniform(0.0, 2.0 * math.pi))))
    return LinearAlgorithm(n=n, gates=tuple(gates), label=f"random{n}x{m}s{seed}")


def spawned_normal_draws(seed: int, lo: int, hi: int, sigma: float, n: int) -> np.ndarray:
    """Inputs of samples lo..hi-1 as columns: one spawned child and generator each."""
    children = np.random.SeedSequence(seed).spawn(hi)[lo:hi]
    X = np.empty((n, len(children)))
    for col, child in enumerate(children):
        X[:, col] = np.random.default_rng(child).normal(0.0, sigma, n)
    return X


def simulate_csv_reference(stats) -> str:
    """The ``simulate`` CSV as one string, every cell formatted at every step."""
    lines = ["# schema_version=1", "t,i,mean_bits,max_abs,overflow_flag"]
    for t, (bits_row, max_row, flag_row) in enumerate(
        zip(stats.mean_bits, stats.max_abs, stats.overflow_flags)
    ):
        cells = zip(bits_row.tolist(), max_row.tolist(), flag_row.tolist())
        for i, (bits, max_abs, flag) in enumerate(cells):
            lines.append(f"{t},{i},{bits!r},{max_abs!r},{int(flag)}")
    return "\n".join(lines) + "\n"


def assert_lemma_contract(code: int, payload: dict) -> None:
    """Check a ``gatelab lemma`` run against its documented contract.

    The contract holds at every seed: the sharp unit-pair and
    orthogonal-change constants, the two-endpoint nonsingular bound and the
    Fourier projection bound are never violated, and the exit code is 2
    exactly when the report holds a nominal violation.  Whether a small sweep
    finds one of the false nominal two-row constants depends on the seed.
    """
    unit, orth = payload["unit_pair_bound"], payload["orthogonal_change_bound"]
    assert unit["corrected_violations"] == 0
    assert orth["corrected_violations"] == 0
    assert payload["nonsingular_change_bound"]["violations"] == 0
    assert all(r["violations"] == 0 for r in payload["fourier_projection_bound"])
    nominal = unit["violations"] + orth["violations"]
    assert code == (2 if nominal else 0), f"exit {code} with {nominal} nominal violations"


def tally_reference(dims, slacks, tol, corrected=None) -> lemma.BoundSweepReport:
    """The sweep report over per-trial lists: the first minimum, its
    dimension and the slacks below -tol."""
    worst = min(slacks, default=math.inf)
    return lemma.BoundSweepReport(
        trials=len(slacks),
        worst_slack=worst,
        violations=sum(1 for s in slacks if s < -tol),
        worst_dim=dims[slacks.index(worst)] if slacks else None,
        corrected_worst_slack=None if corrected is None else min(corrected, default=math.inf),
        corrected_violations=None if corrected is None else sum(1 for s in corrected if s < -tol),
    )


def unit_pair_sweep_reference(trials, max_dim=64, seed=0):
    rng = np.random.default_rng(seed)
    dims, slacks, corrected = [], [], []
    for _ in range(trials):
        a = int(rng.integers(2, max_dim + 1))
        x = rng.standard_normal(a)
        y = rng.standard_normal(a)
        x /= np.linalg.norm(x)
        y /= np.linalg.norm(y)
        value = abs(quasi_entropy(x[:, None], y[:, None]))
        dims.append(a)
        slacks.append(math.log2(a) - value)
        corrected.append(lemma.unit_pair_sharp_bound(a) - value)
    return tally_reference(dims, slacks, 1e-9, corrected)


def orthogonal_sweep_reference(trials, max_rows=16, max_cols=16, seed=0):
    rng = np.random.default_rng(seed)
    dims, slacks, corrected = [], [], []
    for _ in range(trials):
        a = int(rng.integers(2, max_rows + 1))
        n = int(rng.integers(1, max_cols + 1))
        A = rng.standard_normal((a, n))
        B = rng.standard_normal((a, n))
        q, r = np.linalg.qr(rng.standard_normal((a, a)))
        U = q * np.sign(np.diag(r))
        move = abs(quasi_entropy(A, B) - quasi_entropy(U @ A, U @ B))
        norms = np.linalg.norm(A) * np.linalg.norm(B)
        dims.append(a)
        slacks.append(norms * math.log2(a) - move)
        corrected.append(norms * 2.0 * lemma.unit_pair_sharp_bound(a) - move)
    return tally_reference(dims, slacks, 1e-7, corrected)


def nonsingular_sweep_reference(trials, max_rows=16, max_cols=16, seed=0):
    """Skips D as ``lemma.MIN_SINGULAR_RATIO`` says at the time of the call."""
    rng = np.random.default_rng(seed)
    dims, slacks = [], []
    while len(slacks) < trials:
        a = int(rng.integers(2, max_rows + 1))
        n = int(rng.integers(1, max_cols + 1))
        D = rng.standard_normal((a, a))
        svals = np.linalg.svd(D, compute_uv=False)
        if svals[-1] < lemma.MIN_SINGULAR_RATIO * svals[0]:
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
    return tally_reference(dims, slacks, 1e-7)


def _check_psd_contraction_reference(name, X, tol=1e-8):
    if float(np.abs(X - X.T).max()) > tol:
        raise ValueError(f"{name} is not symmetric within {tol}")
    eigs = np.linalg.eigvalsh(X)
    if eigs[0] < -tol or eigs[-1] > 1.0 + tol:
        raise ValueError(
            f"{name} is not a PSD contraction: eigenvalues in [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
        )


def verify_fourier_projection_bound_reference(n, P, Q, check_upper=True):
    """Both projection bounds of one pair, each number from its own call."""
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape != (n, n) or Q.shape != (n, n):
        raise ValueError(f"P and Q must be {n}x{n}")
    F = wht_matrix(n)
    log_n = math.log2(n)
    p_hat = np.eye(n) - P
    q_hat = np.eye(n) - Q
    tr_p_hat = float(np.trace(p_hat))
    tr_q_hat = float(np.trace(q_hat))
    alpha2 = float(np.linalg.norm(p_hat) ** 2)
    beta2 = float(np.linalg.norm(q_hat) ** 2)
    lower_lhs = quasi_entropy(F @ P, F @ Q)
    lower_rhs = (
        n * log_n
        - (tr_p_hat + tr_q_hat) * log_n
        - (alpha2 + beta2) * (lemma.LOWER_OFFSET + lemma.LOWER_SLOPE * log_n)
    )
    upper_lhs = upper_rhs = upper_slack = None
    if check_upper:
        _check_psd_contraction_reference("P", P)
        _check_psd_contraction_reference("Q", Q)
        upper_lhs = quasi_entropy(P, Q)
        upper_rhs = tr_p_hat + tr_q_hat + alpha2 + beta2 + (alpha2 + beta2) * log_n
        upper_slack = upper_rhs - upper_lhs
    return lemma.FourierProjectionReport(
        n=n, tr_p_hat=tr_p_hat, tr_q_hat=tr_q_hat, alpha2=alpha2, beta2=beta2,
        lower_lhs=lower_lhs, lower_rhs=lower_rhs, lower_slack=lower_lhs - lower_rhs,
        upper_lhs=upper_lhs, upper_rhs=upper_rhs, upper_slack=upper_slack,
    )


def random_projection_reference(rng, n, rank):
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V = basis[:, :rank]
    return V @ V.T


def projection_sweep_reference(n, trials, seed=0):
    rng = np.random.default_rng(seed)
    worst_lower = worst_upper = math.inf
    violations = 0
    for _ in range(trials):
        r_p = int(rng.integers(1, n // 2 + 1))
        r_q = int(rng.integers(1, n // 2 + 1))
        P = random_projection_reference(rng, n, n - r_p)
        Q = random_projection_reference(rng, n, n - r_q)
        report = verify_fourier_projection_bound_reference(n, P, Q)
        worst_lower = min(worst_lower, report.lower_slack)
        worst_upper = min(worst_upper, report.upper_slack)
        if report.lower_slack < -lemma.PROJ_SLACK_TOL or report.upper_slack < -lemma.PROJ_SLACK_TOL:
            violations += 1
    return lemma.ProjectionSweepReport(
        n=n, trials=trials, worst_lower_slack=worst_lower, worst_upper_slack=worst_upper,
        violations=violations,
    )


def best_candidate_reference(algorithm, P, Q, tau, unrestricted):
    """The sequential extraction scan: the first qualifying pair with the largest score."""
    best = None
    A, B = start_pair(algorithm.n, P, Q)
    for t, rows in replay(algorithm, A, B):
        for i in range(algorithm.n) if unrestricted else sorted(rows):
            norm_m = float(np.linalg.norm(A[i]))
            norm_q = float(np.linalg.norm(B[i]))
            if max(norm_m, norm_q) < tau:
                continue
            score = norm_m * norm_q
            if best is None or score > best[0]:
                best = (score, t, i, norm_m, norm_q, A[i].copy(), B[i].copy())
    return best


def _block_product(A, B, rows):
    idx = list(rows)
    return float(np.linalg.norm(A[idx]) * np.linalg.norm(B[idx]))


def window_products_reference(algorithm, P, Q, R):
    """Each window's sorted rows and |A_I|_F |B_I|_F at its start and its end."""
    m = algorithm.m
    starts = range(0, m, R)
    sets = [
        tuple(sorted({i for g in algorithm.gates[s : s + R] for i in touched(g)}))
        for s in starts
    ]
    start_products, end_products = [], []
    A, B = start_pair(algorithm.n, P, Q)
    for t, _ in replay(algorithm, A, B):
        if t % R == 0 and t < m:
            start_products.append(_block_product(A, B, sets[t // R]))
        if t and (t % R == 0 or t == m):
            end_products.append(_block_product(A, B, sets[(t - 1) // R]))
    return sets, start_products, end_products


def trace_bounds_reference(algorithm, P=None, Q=None):
    """Per-step change bounds, each gate's rows measured in ascending order,
    as every window's are, whatever the gate's (i, j) order."""
    bounds = [0.0]
    A, B = start_pair(algorithm.n, P, Q)
    steps = replay(algorithm, A, B)
    next(steps)
    for gate in algorithm.gates:
        rows = tuple(sorted(touched(gate)))
        before = _block_product(A, B, rows)
        next(steps)
        bounds.append(change_bound(len(rows), before, _block_product(A, B, rows)))
    return bounds


def validate_reference(algorithm, residual_tol=1e-6):
    """``validate`` with the n^3 residual product and a full SVD at every step."""
    n = algorithm.n
    eye = np.eye(n)
    max_residual = 0.0
    kappas: list[float] = []
    M, Minv_T = start_pair(n)
    for _ in replay(algorithm, M, Minv_T):
        residual = float(np.abs(M @ Minv_T.T - eye).max())
        max_residual = max(max_residual, residual)
        svals = np.linalg.svd(M, compute_uv=False)
        kappas.append(float(svals[0] / svals[-1]))
    return TrajectoryDiagnostics(
        n=n,
        m=algorithm.m,
        max_residual=max_residual,
        kappas=kappas,
        max_kappa=float(max(kappas)),
        stable=max_residual <= residual_tol,
    )


def _orthogonalize(w, basis):
    # Deflation already leaves w orthogonal to the basis up to float noise;
    # re-orthogonalize explicitly only when the residual is visible.
    if basis:
        V = np.array(basis)
        dots = V @ w
        if np.abs(dots).max() > 1e-10 * max(np.linalg.norm(w), 1e-30):
            w = w - V.T @ dots
            w = w - V.T @ (V @ w)
    return w


def extract_directions_reference(
    algorithm, tau=None, unrestricted=False, require_wht_target=True, target_tol=1e-8,
    rounds=None,
):
    """``extract_directions`` with the projections P and Q and a full rescan per round.

    Ties go to the first maximum in scan order, of scores exactly equal in
    floating point; once a system spans R^n, rounding noise ranks the rest.
    ``rounds``, a list, receives the kind of system each round extended.
    """
    n = algorithm.n
    if require_wht_target:
        M_final, _ = matrices_at(algorithm, algorithm.m)
        if float(np.abs(M_final - wht_matrix(n)).max()) > target_tol:
            raise ValueError("final matrix is not the Walsh-Hadamard transform")
    if tau is None:
        tau = math.sqrt(speedup_factor(algorithm) / 2.0)

    P = np.eye(n)
    Q = np.eye(n)
    over = DirectionSystem("overflow", [], [], [], [], tau)
    under = DirectionSystem("underflow", [], [], [], [], tau)

    for _ in range(2 * n):
        best = best_candidate_reference(algorithm, P, Q, tau, unrestricted)
        if best is None:
            break
        _, t, i, norm_m, norm_q, row_m, row_q = best
        if norm_m >= norm_q:
            system, projection, row, magnitude = over, P, row_m, norm_m
        else:
            system, projection, row, magnitude = under, Q, row_q, norm_q
        w = _orthogonalize(row, system.vectors)
        v = w / np.linalg.norm(w)
        system.vectors.append(v)
        system.steps.append(t)
        system.coords.append(i)
        system.magnitudes.append(magnitude)
        if rounds is not None:
            rounds.append(system.kind)
        projection -= np.outer(v, v)
        projection[:] = (projection + projection.T) / 2.0

    per_step = n if unrestricted else 2
    over.check(per_step=per_step)
    under.check(per_step=per_step)
    return over, under


def extend_basis_reference(underflow, n):
    """``extend_basis`` restacking the vectors so far in every slot."""
    n_prime = underflow.size
    if n_prime > n:
        raise ValueError(f"system of size {n_prime} cannot extend to dimension {n}")
    u_vectors = [np.asarray(u, dtype=float).copy() for u in underflow.vectors]
    gammas = list(underflow.magnitudes)
    z_vectors = [g * u for g, u in zip(gammas, u_vectors)]

    for j in range(n_prime, n):
        if u_vectors:
            U = np.array(u_vectors)
            explained = (U**2).sum(axis=0)
        else:
            explained = np.zeros(n)
        i0 = int(np.argmin(explained))
        z = np.zeros(n)
        z[i0] = 1.0
        w = z.copy()
        if u_vectors:
            U = np.array(u_vectors)
            w = w - U.T @ (U @ w)
            w = w - U.T @ (U @ w)
        gamma = float(np.linalg.norm(w))
        if gamma < 1e-12:
            raise RuntimeError(f"degenerate projection while extending at slot {j}")
        guarantee = math.sqrt(max(1.0 - j / n, 0.0))
        if gamma < guarantee - 1e-9:
            raise RuntimeError(
                f"extension norm {gamma} below pigeonhole guarantee {guarantee} at slot {j}"
            )
        z_vectors.append(z)
        u_vectors.append(w / gamma)
        gammas.append(gamma)

    return ExtendedBasis(
        z_vectors=z_vectors, u_vectors=u_vectors, gammas=gammas, n_extracted=n_prime
    )


def most_informative_cell_reference(algorithm, z):
    """The (step, coordinate) whose word carries the largest component of z."""
    best = (0.0, 1, 0)
    M, Minv_T = start_pair(algorithm.n)
    for t, rows in replay(algorithm, M, Minv_T):
        for i in sorted(rows):
            weight = abs(float(Minv_T[i] @ z))
            if weight > best[0]:
                best = (weight, t, i)
    return best[1], best[2]


def _dot(x, y):
    return sum(a * b for a, b in zip(x, y))


def extract_directions_exact(algorithm, tau, rho, unrestricted=False):
    """Greedy extraction in exact rational arithmetic.

    The gates are the algorithm's float cos, sin and c values taken exactly
    as rationals; M^{-T} scales by the exact 1/c.  Directions are kept
    unnormalised (Gram-Schmidt without square roots), so every squared
    factor |r|^2 - sum_j (r . w_j)^2 / |w_j|^2 is an exact rational and
    a factor in the span is exactly 0.  Selection: a candidate qualifies
    when a squared factor reaches tau^2; scores (compared squared) within
    the relative tolerance ``rho`` of the top tie, and ties go to the
    smallest step, then coordinate, then the overflow side when the factors
    are equal within ``rho``.  Returns, per system, its (step, coordinate,
    magnitude) picks.
    """
    n = algorithm.n
    A = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    B = [row[:] for row in A]
    candidates = [(0, i, A[i], B[i]) for i in range(n)] if unrestricted else []
    for t, gate in enumerate(algorithm.gates, start=1):
        if isinstance(gate, Rotation):
            c, s = Fraction(math.cos(gate.theta)), Fraction(math.sin(gate.theta))
            for X in (A, B):
                xi, xj = X[gate.i], X[gate.j]
                X[gate.i] = [c * a + s * b for a, b in zip(xi, xj)]
                X[gate.j] = [-s * a + c * b for a, b in zip(xi, xj)]
        else:
            c = Fraction(gate.c)
            A[gate.i] = [c * a for a in A[gate.i]]
            B[gate.i] = [a / c for a in B[gate.i]]
        candidates += [(t, i, A[i], B[i]) for i in sorted(touched(gate))]
    candidates.sort(key=lambda cand: cand[:2])

    residual = [[_dot(r, r), _dot(s, s)] for _, _, r, s in candidates]
    tau2 = Fraction(tau) ** 2
    keep = (1 - Fraction(rho)) ** 2  # scores and factors compared as squares
    bases = ([], [])  # each system's (w, |w|^2), unnormalised
    picks = ([], [])
    for _ in range(2 * n):
        qualifying = [k for k, (lm, lq) in enumerate(residual) if max(lm, lq) >= tau2]
        if not qualifying:
            break
        top = max(residual[k][0] * residual[k][1] for k in qualifying)
        k = next(k for k in qualifying if residual[k][0] * residual[k][1] >= top * keep)
        side = 0 if residual[k][0] >= residual[k][1] * keep else 1
        t, i, *rows = candidates[k]
        w = rows[side]
        for wj, wj2 in bases[side]:
            coef = _dot(w, wj) / wj2
            w = [a - coef * b for a, b in zip(w, wj)]
        w2 = _dot(w, w)  # equals residual[k][side]
        picks[side].append((t, i, math.sqrt(w2)))
        bases[side].append((w, w2))
        for res, (_, _, *cand_rows) in zip(residual, candidates):
            res[side] -= _dot(cand_rows[side], w) ** 2 / w2
    return picks
