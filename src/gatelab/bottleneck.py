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
window.  The chain reads its scan report from its own walk, so it equals
``scan_bottlenecks`` exactly.

Both read one record of ``potential.ledger_walk``, the walk of
``trace_potential`` too, which layers the windows as units
(``layering.layer(algorithm, R)``; R = 1 is the gate case) and takes every
window's touched-row products at its start and, for the chain, at its end.
The chain keeps the walk's row ledger and its drift guard: a recheck of the
potential every ``RECOMPUTE_EVERY`` gates of a panel and, at the end, a
check that the moves add up to the change of the potential.  The scan runs
without the ledger.  With one panel (n <= 512) every number is the
full-width walk's, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
import numpy as np

from .gates import LinearAlgorithm, check_finite
from .potential import WindowWalk, change_bound, ledger_walk


def _padded_length(m: int, R: int) -> int:
    return ((m + R - 1) // R) * R


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
    algorithm: LinearAlgorithm, R: int, walk: WindowWalk, scanned: np.ndarray
) -> BottleneckReport:
    """Scan report from the walk's start products and the scanned windows' indices."""
    m = algorithm.m
    phi_identity, phi_final = walk.phi_identity, walk.phi_final
    rhs = R * (phi_final - phi_identity) / (m * math.log2(2 * R)) if m else 0.0
    per_step = walk.start_products[scanned].tolist()
    if per_step:
        best = int(np.argmax(per_step))
        lhs = per_step[best]
        t_star: int | None = int(scanned[best]) * R
        best_affected = walk.unit_rows[scanned[best]]
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
    walk = ledger_walk(algorithm, P, Q, R, ledger=False)
    scanned = _scanned(algorithm, R, include_constants)
    check_finite(
        walk.start_products[scanned], lambda k: f"the window product at t = {scanned[k] * R}"
    )
    return _scan_report(algorithm, R, walk, scanned)


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
    those rows' contribution from its start to its end, read from the row
    ledger of ``potential.ledger_walk``, whose drift guard raises
    ``ArithmeticError`` when the ledger drifts from the exact potential.
    """
    walk = ledger_walk(algorithm, P, Q, R)
    phi_identity, phi_final = walk.phi_identity, walk.phi_final
    n_windows = len(walk.unit_rows)
    ends = np.maximum(walk.start_products, walk.end_products)
    check_finite(ends, lambda w: f"the window product at t = {w * R}")

    links: list[WindowLink] = []
    for w, rows in enumerate(walk.unit_rows):
        delta_abs = abs(float(walk.moves[w]))
        bound = change_bound(len(rows), float(walk.start_products[w]), float(walk.end_products[w]))
        links.append(
            WindowLink(
                start=w * R,
                affected=rows,
                delta_abs=delta_abs,
                bound=bound,
                slack=bound - delta_abs,
            )
        )

    triangle_lhs = sum((link.delta_abs for link in links), 0.0)
    triangle_rhs = abs(phi_final - phi_identity)
    max_endpoint = float(ends.max(initial=0.0))
    average_requirement = (
        (phi_final - phi_identity) / (2 * n_windows * math.log2(2 * R)) if n_windows else 0.0
    )
    scan = _scan_report(algorithm, R, walk, _scanned(algorithm, R, False))
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


# The projection bounds of ``gatelab lemma`` live in ``lemma``; this name,
# which ``cmd_lemma`` calls and the benchmark traces here, loads it on first
# access (PEP 562), so that ``scan`` and ``chain`` do not.
_LEMMA_NAMES = {"sweep_fourier_projection_bound"}


def __getattr__(name: str):
    if name not in _LEMMA_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import lemma

    return getattr(lemma, name)
