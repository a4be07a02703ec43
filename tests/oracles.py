"""Independent dense oracles and per-step references used by the tests.

The dense oracles are computed from first principles with plain numpy:
closed forms for the reference transforms, dense gate matrices composed with
@, and brute-force potential evaluation.  They reuse none of the package's
replay paths, so an agreement between the two is a genuine dual-route check.
``spawned_normal_draws`` is the per-sample seeding that ``quantized`` derives
in bulk, and ``simulate_csv_reference`` the cell-by-cell rendering of the
``simulate`` CSV that the CLI streams from the cells that changed, and
``trace_csv_reference`` the joined ``trace`` CSV that it streams line by line.
``row_contribs_reference`` is the one-pass row contribution formula that the
row-blocked ``row_contribs`` must reproduce bit for bit.
``assert_lemma_contract`` checks a ``lemma`` report against the exit-code
contract the README documents.

The per-step references at the end walk the trajectory one gate at a time
through ``gatelab.replay`` (itself checked against ``compose_dense``) and
measure each row block with its own ``np.linalg.norm`` call, as the analyses
did before they walked in layers: ``best_candidate_reference`` is the
sequential extraction scan, ``window_products_reference`` the window products
of the scan and the chain, and ``trace_bounds_reference`` the per-gate change
bounds of the trace.  The layered analyses must match them bit for bit.
``validate_reference`` is ``validate`` as a dense check at every step: the
full residual product and an SVD after each gate.
"""

import math

import numpy as np

from gatelab.gates import Constant, Rotation, TrajectoryDiagnostics, replay, touched
from gatelab.potential import ZERO_PRODUCT, change_bound


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


def potential_brute(A: np.ndarray, B: np.ndarray) -> float:
    total = 0.0
    for a, b in zip(np.ravel(A), np.ravel(B)):
        p = a * b
        if p != 0.0:
            total -= p * math.log2(abs(p))
    return total


def row_contribs_reference(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Each row's share of the potential in one pass over the whole pair, with
    full-size temporaries: ``row_contribs`` as it was before row blocks."""
    p = A * B
    log = np.abs(p)
    keep = log >= ZERO_PRODUCT
    np.log2(log, out=log, where=keep)
    np.copyto(p, 0.0, where=~keep)
    p *= log
    return -p.sum(axis=1)


def trace_csv_reference(trace) -> str:
    """The ``trace`` CSV as one string joined from a list of its lines."""
    lines = ["# schema_version=1", "t,phi,delta,bound,touched_i,touched_j"]
    columns = zip(trace.values, trace.per_step_delta, trace.per_step_bound, trace.touched_sets)
    for t, (phi, delta, bound, rows) in enumerate(columns):
        ti = str(rows[0]) if rows else ""
        tj = str(rows[1]) if len(rows) > 1 else ""
        lines.append(f"{t},{float(phi)!r},{float(delta)!r},{float(bound)!r},{ti},{tj}")
    return "\n".join(lines) + "\n"


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


def best_candidate_reference(algorithm, P, Q, tau, unrestricted):
    """The sequential extraction scan: the first qualifying pair with the largest score."""
    best = None
    for t, rows, A, B in replay(algorithm, P, Q):
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
    for t, _, A, B in replay(algorithm, P, Q):
        if t % R == 0 and t < m:
            start_products.append(_block_product(A, B, sets[t // R]))
        if t and (t % R == 0 or t == m):
            end_products.append(_block_product(A, B, sets[(t - 1) // R]))
    return sets, start_products, end_products


def trace_bounds_reference(algorithm, P=None, Q=None):
    """Per-step change bounds, each gate's rows measured in its (i, j) order."""
    bounds = [0.0]
    steps = replay(algorithm, P, Q)
    _, _, A, B = next(steps)
    for gate in algorithm.gates:
        rows = touched(gate)
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
    for _, _, M, Minv_T in replay(algorithm):
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
