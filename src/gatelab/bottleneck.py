"""Bottleneck scan over windows of gates and related potential inequalities.

Any in-place algorithm that moves the potential from its identity value to
its final value must somewhere concentrate that movement: partitioning the
gate list into windows of R consecutive gates, the potential move across one
window is controlled by the Frobenius norms of the touched rows of M P and
M^{-T} Q at the window boundaries.  The scan therefore reports, per window
start t,

    lhs(t) = sqrt( |(M(t) P)[I_t]|_F^2 * |(M(t)^{-T} Q)[I_t]|_F^2 ),

with I_t the union of coordinates touched inside the window, and compares the
maximum against the averaged bound

    rhs = R * (potential(final) - potential(identity)) / (m * log2(2R)).

Windows start at multiples of R; the gate list is conceptually padded with
identity steps up to a multiple of R.  For R = 1 the scan restricts to
rotation steps by default, because a constant gate scales the paired rows by
c and 1/c and provably cannot move the potential.

``verify_bottleneck_chain`` re-derives the averaged bound link by link
(triangle inequality, per-window change bound, max versus average) and
reports the slack of each link, which is nonnegative up to float noise for
every algorithm and every P, Q.  A window rewrites only the rows in I_t, so
its move is the change in those rows' potential contribution across the
window; the exact potential is evaluated only at the two ends, and the moves
must add up to its change.  The chain reads its scan report from the same
walk, so it equals ``scan_bottlenecks`` exactly.

Both walk the trajectory layer by layer with windows as units
(``gates.layer(algorithm, R)``; R = 1 is the gate case): windows in one
block touch disjoint rows, so the block holds each window's rows at its start
and at its end, and the products of a whole block take a few numpy calls.
The walk takes the columns in panels (``gates.column_panels``): every
potential, row contribution and squared window norm is a sum over columns,
so each panel adds into per-window sums, and the products take their square
roots at the end.  With one panel (n <= 512) every number is the full-width
walk's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .builders import wht_matrix
from .gates import (
    Block,
    LinearAlgorithm,
    Layering,
    Workspace,
    column_panels,
    layer,
    panel_width,
    replay_layers,
)
from .potential import (
    DRIFT_TOL,
    change_bound,
    norm_products,
    quasi_entropy,
    row_contribs,
    squared_row_norms,
    swap_contribs,
)


def _padded_length(m: int, R: int) -> int:
    return ((m + R - 1) // R) * R


def _windows(algorithm: LinearAlgorithm, R: int) -> Layering:
    if not 1 <= R <= algorithm.n // 2:
        raise ValueError(f"window size {R} out of range [1, {algorithm.n // 2}]")
    return layer(algorithm, R, width=panel_width(algorithm.n))


def _window_squares(block: Block, x: np.ndarray) -> np.ndarray:
    """|X_I|_F^2 of each window of a block, in ``block.units`` order, from the
    block's rows ``x``; I is the window's sorted rows."""
    n = x.shape[1]
    squares = np.empty(block.units.size)
    for size, first, end in block.groups:
        rows = slice(block.unit_starts[first], block.unit_starts[first] + (end - first) * size)
        squares[first:end] = squared_row_norms(x[rows].reshape(end - first, size * n))
    return squares


def _scanned(algorithm: LinearAlgorithm, R: int, include_constants: bool) -> np.ndarray:
    """The windows a scan rates: the R = 1 scan skips constant-gate steps."""
    if R > 1 or include_constants:
        return np.arange(_padded_length(algorithm.m, R) // R)
    return np.flatnonzero(algorithm.arrays.rotation)


@dataclass
class BottleneckReport:
    R: int
    t_star: int | None
    affected: tuple[int, ...]
    lhs: float
    rhs: float
    slack: float
    window_starts: list[int]
    per_step_lhs: list[float]
    phi_final: float
    phi_identity: float
    m: int
    m_padded: int


def _scan_report(
    algorithm: LinearAlgorithm,
    R: int,
    window_sets: list[tuple[int, ...]],
    scanned: np.ndarray,
    products: np.ndarray,
    phi_identity: float,
    phi_final: float,
) -> BottleneckReport:
    """Scan report from the start products of all windows and the scanned ones' indices."""
    m = algorithm.m
    rhs = R * (phi_final - phi_identity) / (m * math.log2(2 * R)) if m else 0.0
    per_step = products[scanned].tolist()
    if per_step:
        best = int(np.argmax(per_step))
        lhs = per_step[best]
        t_star: int | None = int(scanned[best]) * R
        best_affected = window_sets[scanned[best]]
    else:
        lhs, t_star, best_affected = 0.0, None, ()
    return BottleneckReport(
        R=R,
        t_star=t_star,
        affected=best_affected,
        lhs=lhs,
        rhs=rhs,
        slack=lhs - rhs,
        window_starts=(scanned * R).tolist(),
        per_step_lhs=per_step,
        phi_final=phi_final,
        phi_identity=phi_identity,
        m=m,
        m_padded=_padded_length(m, R),
    )


def scan_bottlenecks(
    algorithm: LinearAlgorithm,
    P: np.ndarray | None = None,
    Q: np.ndarray | None = None,
    R: int = 1,
    include_constants: bool = False,
) -> BottleneckReport:
    """Scan window starts for the maximal touched-row Frobenius product.

    ``include_constants`` widens the R = 1 scan to constant-gate steps, whose
    single touched row plays the role of both indices.
    """
    windows = _windows(algorithm, R)
    phi_identity, phi_final, squares, _, _ = _walk_windows(algorithm, windows, P, Q, ends=False)
    scanned = _scanned(algorithm, R, include_constants)
    products = norm_products(squares[0], squares[1])
    return _scan_report(
        algorithm, R, windows.unit_rows, scanned, products, phi_identity, phi_final
    )


def _walk_windows(
    algorithm: LinearAlgorithm, windows: Layering, P, Q, ends: bool
) -> tuple[float, float, np.ndarray, np.ndarray | None, float]:
    """The walk of the scan and the chain, one column panel at a time.

    Returns the identity and final potentials; each window's |A_I|_F^2 and
    |B_I|_F^2 at its start and, with ``ends``, at its end (rows 2 and 3);
    and, with ``ends``, each window's move and the largest row contribution
    seen, from a row ledger per panel (None and 1.0 without).  The panels,
    the ledgers and the workspace die with the call.
    """
    n_windows = len(windows.unit_rows)
    workspace = Workspace()
    # sums over the panels start at -0.0, the additive identity, so one
    # panel gives its own numbers bit for bit
    phi_identity = phi_final = -0.0
    squares = np.zeros((4 if ends else 2, n_windows))
    moves = np.full(n_windows, -0.0) if ends else None
    scale = 1.0
    for A, B in column_panels(algorithm.n, P, Q):
        phi_identity += quasi_entropy(A, B, workspace)
        ledger = row_contribs(A, B, workspace).copy() if ends else None
        for block, a0, b0, a1, b1 in replay_layers(windows.blocks, A, B, workspace):
            for x, sums in zip((a0, b0, a1, b1), squares):
                sums[block.units] += _window_squares(block, x)
            if ends:
                before, after = swap_contribs(ledger, block, row_contribs(a1, b1, workspace))
                moves[block.units] += after - before
                scale = max(scale, float(np.abs(before).max()), float(np.abs(after).max()))
        phi_final += quasi_entropy(A, B, workspace)
    return phi_identity, phi_final, squares, moves, scale


@dataclass
class WindowLink:
    start: int
    affected: tuple[int, ...]
    delta_abs: float
    bound: float
    slack: float


@dataclass
class ChainReport:
    R: int
    m: int
    m_padded: int
    phi_identity: float
    phi_final: float
    triangle_lhs: float
    triangle_rhs: float
    triangle_slack: float
    windows: list[WindowLink]
    min_window_slack: float
    max_endpoint_product: float
    average_requirement: float
    max_vs_average_slack: float
    scan: BottleneckReport


def verify_bottleneck_chain(
    algorithm: LinearAlgorithm,
    P: np.ndarray | None = None,
    Q: np.ndarray | None = None,
    R: int = 1,
) -> ChainReport:
    """Check every link of the averaged bottleneck bound numerically.

    Links: (a) the triangle inequality over window boundaries, (b) each
    window's change bound evaluated at both endpoints, (c) the final
    max-versus-average step.  All slacks are nonnegative up to float noise.

    A window rewrites only the rows it touches, so its move is the change in
    those rows' contribution from its start to its end; the exact potential is
    computed only at the first and the last boundary.  The moves must add up
    to the total change within ``DRIFT_TOL`` of the largest value or block
    contribution seen, or ``ArithmeticError`` is raised.
    """
    windows = _windows(algorithm, R)
    window_sets = windows.unit_rows
    n_windows = len(window_sets)
    phi_identity, phi_final, squares, moves, scale = _walk_windows(
        algorithm, windows, P, Q, ends=True
    )
    start_products = norm_products(squares[0], squares[1])
    end_products = norm_products(squares[2], squares[3])

    residual = abs(float(moves.sum()) - (phi_final - phi_identity))
    if residual > DRIFT_TOL * max(scale, abs(phi_identity), abs(phi_final)):
        raise ArithmeticError(f"window moves miss the potential change by {residual:.3e}")

    links: list[WindowLink] = []
    for w, rows in enumerate(window_sets):
        delta_abs = abs(float(moves[w]))
        bound = change_bound(len(rows), float(start_products[w]), float(end_products[w]))
        links.append(
            WindowLink(
                start=w * R,
                affected=rows,
                delta_abs=delta_abs,
                bound=bound,
                slack=bound - delta_abs,
            )
        )

    triangle_lhs = sum(link.delta_abs for link in links)
    triangle_rhs = abs(phi_final - phi_identity)
    max_endpoint = float(np.maximum(start_products, end_products).max(initial=0.0))
    average_requirement = (
        (phi_final - phi_identity) / (2 * n_windows * math.log2(2 * R)) if n_windows else 0.0
    )
    scanned = _scanned(algorithm, R, False)
    scan = _scan_report(
        algorithm, R, window_sets, scanned, start_products, phi_identity, phi_final
    )
    return ChainReport(
        R=R,
        m=algorithm.m,
        m_padded=_padded_length(algorithm.m, R),
        phi_identity=phi_identity,
        phi_final=phi_final,
        triangle_lhs=triangle_lhs,
        triangle_rhs=triangle_rhs,
        triangle_slack=triangle_lhs - triangle_rhs,
        windows=links,
        min_window_slack=min((link.slack for link in links), default=0.0),
        max_endpoint_product=max_endpoint,
        average_requirement=average_requirement,
        max_vs_average_slack=max_endpoint - average_requirement,
        scan=scan,
    )


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


def _check_psd_contraction(name: str, X: np.ndarray, tol: float = 1e-8) -> None:
    if float(np.abs(X - X.T).max()) > tol:
        raise ValueError(f"{name} is not symmetric within {tol}")
    eigs = np.linalg.eigvalsh(X)
    if eigs[0] < -tol or eigs[-1] > 1.0 + tol:
        raise ValueError(
            f"{name} is not a PSD contraction: eigenvalues in [{eigs[0]:.3e}, {eigs[-1]:.3e}]"
        )


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
        - (alpha2 + beta2) * (LOWER_OFFSET + LOWER_SLOPE * log_n)
    )

    upper_lhs = upper_rhs = upper_slack = None
    if check_upper:
        _check_psd_contraction("P", P)
        _check_psd_contraction("Q", Q)
        upper_lhs = quasi_entropy(P, Q)
        upper_rhs = tr_p_hat + tr_q_hat + alpha2 + beta2 + (alpha2 + beta2) * log_n
        upper_slack = upper_rhs - upper_lhs

    return FourierProjectionReport(
        n=n,
        tr_p_hat=tr_p_hat,
        tr_q_hat=tr_q_hat,
        alpha2=alpha2,
        beta2=beta2,
        lower_lhs=lower_lhs,
        lower_rhs=lower_rhs,
        lower_slack=lower_lhs - lower_rhs,
        upper_lhs=upper_lhs,
        upper_rhs=upper_rhs,
        upper_slack=upper_slack,
    )


def random_projection(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    """Random orthogonal projection of the given rank."""
    basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
    V = basis[:, :rank]
    return V @ V.T


@dataclass
class ProjectionSweepReport:
    n: int
    trials: int
    worst_lower_slack: float
    worst_upper_slack: float
    violations: int


def sweep_fourier_projection_bound(
    n: int, trials: int = 100, seed: int = 0, slack_tol: float = 1e-6
) -> ProjectionSweepReport:
    """Both bounds on random orthogonal-projection pairs of rank n - r, r <= n/2."""
    rng = np.random.default_rng(seed)
    worst_lower = math.inf
    worst_upper = math.inf
    violations = 0
    for _ in range(trials):
        r_p = int(rng.integers(1, n // 2 + 1))
        r_q = int(rng.integers(1, n // 2 + 1))
        P = random_projection(rng, n, n - r_p)
        Q = random_projection(rng, n, n - r_q)
        report = verify_fourier_projection_bound(n, P, Q)
        worst_lower = min(worst_lower, report.lower_slack)
        worst_upper = min(worst_upper, report.upper_slack)
        if report.lower_slack < -slack_tol or report.upper_slack < -slack_tol:
            violations += 1
    return ProjectionSweepReport(
        n=n,
        trials=trials,
        worst_lower_slack=worst_lower,
        worst_upper_slack=worst_upper,
        violations=violations,
    )
