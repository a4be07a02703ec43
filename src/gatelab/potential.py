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

One kernel, ``_entry_terms``, turns entry products (pair sums, for the
complex variant) into terms p*log2|p|, dropping |p| < ``ZERO_PRODUCT``:
``quasi_entropy``, ``complex_quasi_entropy``, ``row_contribs`` and
``lemma.stacked_quasi_entropy`` sum what it leaves, a row block of at most
``BLOCK_ELEMENTS`` entries at a time.  ``norm_products`` multiplies the
square roots of ``gates.squared_row_norms``, so a batch of blocks gives the
products of one ``np.linalg.norm`` call per block bit for bit.

The potential, every row contribution and every squared norm is a sum over
columns.  ``ledger_walk`` is the one walk of ``trace_potential`` (windows
of R = 1 gate), ``bottleneck.scan_bottlenecks`` and
``bottleneck.verify_bottleneck_chain``: it layers the windows itself, takes
the columns in panels (``gates.column_panels``), adds each block's squared
window norms into per-window sums and returns one record (``WindowWalk``)
whose products take their square roots at the end.  Each panel keeps a row
ledger, and one drift guard serves trace and chain: every panel rechecks
its incremental potential against an exact recomputation every
``RECOMPUTE_EVERY`` gates, and at the end the moves must add up to the
change between the two end potentials.  With one panel (n <= 512) every
number is the full-width walk's, bit for bit.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .gates import (
    BLOCK_ELEMENTS,
    LinearAlgorithm,
    UnitRows,
    Workspace,
    check_finite,
    column_panels,
    layer,
    panel_width,
    replay_layers,
    squared_row_norms,
)

# Entry products below this threshold are treated as exact zeros; keeps log2
# clear of subnormal underflow.
ZERO_PRODUCT = 1e-300


def _entry_terms(p: np.ndarray, workspace: Workspace | None = None) -> np.ndarray | None:
    """Turn the entry products ``p`` into their terms p*log2|p| in place,
    0.0 where |p| < ZERO_PRODUCT (or p is NaN), and return the mask of the
    products kept, or None when all were (as on random draws).  The
    temporaries are fresh, or views into ``workspace``: the logarithms in the
    second half of ``take("scratch", (2, *p.shape))``, whose first half
    ``_block_products`` hands out as ``p``."""
    log, keep = (None, None) if workspace is None else (
        workspace.take("scratch", (2, *p.shape))[1], workspace.take("keep", p.shape, bool)
    )
    log = np.abs(p, out=log)
    keep = np.greater_equal(log, ZERO_PRODUCT, out=keep)
    np.log2(log, out=log, where=keep)
    np.multiply(p, log, out=p)
    if np.count_nonzero(keep) == keep.size:
        return None
    np.copyto(p, 0.0, where=~keep)
    return keep


def _block_products(
    A: np.ndarray, B: np.ndarray, workspace: Workspace
) -> Iterator[tuple[slice, np.ndarray]]:
    """Each row block of at most ``BLOCK_ELEMENTS`` entries (one row when a
    row alone is wider) and its entry products, in the workspace."""
    step = max(1, BLOCK_ELEMENTS // max(1, A.shape[1]))
    for lo in range(0, len(A), step):
        rows = slice(lo, lo + step)
        a = A[rows]
        yield rows, np.multiply(a, B[rows], out=workspace.take("scratch", (2, *a.shape))[0])


def _negated_sum(blocks: Iterable[np.ndarray], workspace: Workspace) -> float:
    """Minus the sum of the entry terms of each block of products.  A block
    without a kept product adds nothing, and the sum starts at -0.0, the
    additive identity, so a zero total keeps its sign: the identity pair
    gives -0.0 (every term is 0.0) and a pair without a kept product 0.0."""
    total = -0.0
    for p in blocks:
        keep = _entry_terms(p, workspace)
        if keep is None or keep.any():
            total += float(p.sum())
    return -total


def quasi_entropy(A: np.ndarray, B: np.ndarray, workspace: Workspace | None = None) -> float:
    """Potential of the pair (A, B); zero entry products contribute zero.

    The pair is summed in row blocks (a small pair is one block) through
    ``workspace`` (a fresh one if None), so it needs no full-size temporaries.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    A, B = A.reshape(len(A), -1), B.reshape(len(B), -1)
    workspace = Workspace() if workspace is None else workspace
    return _negated_sum((p for _, p in _block_products(A, B, workspace)), workspace)


def complex_quasi_entropy(A: np.ndarray, B: np.ndarray) -> float:
    """Column-paired potential matched to the interleaved real embedding, in
    row blocks: a block's products in the even columns plus those in the odd
    columns are its pair sums."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise ValueError(f"shape mismatch {A.shape} vs {B.shape}")
    if A.ndim != 2 or A.shape[1] % 2:
        raise ValueError(f"need an even number of columns, got shape {A.shape}")
    workspace = Workspace()

    def pair_sums():
        for rows, p in _block_products(A[:, 0::2], B[:, 0::2], workspace):
            odd = workspace.take("scratch", (2, *p.shape))[1]  # the other half of p's buffer
            yield np.add(p, np.multiply(A[rows, 1::2], B[rows, 1::2], out=odd), out=p)

    return _negated_sum(pair_sums(), workspace)


def norm_products(x2: np.ndarray, y2: np.ndarray) -> np.ndarray:
    """|X_r| * |Y_r| from the squared norms of ``squared_row_norms``: a
    block's |A_I|_F * |B_I|_F.  An overflowed square times an underflowed
    one gives NaN, silently: callers report it (``check_finite``)."""
    with np.errstate(invalid="ignore"):
        return np.sqrt(x2) * np.sqrt(y2)


def row_contribs(A: np.ndarray, B: np.ndarray, workspace: Workspace | None = None) -> np.ndarray:
    """Each row's share of the potential of (A, B), evaluated in row blocks.

    With a workspace the result is a view into it, valid until its next
    use; without one it is a fresh array.
    """
    out = np.empty(len(A)) if workspace is None else workspace.take("contribs", (len(A),))
    if workspace is None:
        workspace = Workspace()
    for rows, p in _block_products(A, B, workspace):
        _entry_terms(p, workspace)
        np.sum(p, axis=1, out=out[rows])
    return np.negative(out, out=out)


def change_bound(rows: int, before: float, after: float) -> float:
    """Bound on the potential move of a block of rows rewritten by one nonsingular map.

    ``before`` and ``after`` are the block products at the two endpoints; a
    single row cannot move the potential, so its bound is 0.
    """
    return (before + after) * math.log2(rows) if rows > 1 else 0.0


# ``ledger_walk``'s incremental potential is checked against an exact
# recomputation at least every RECOMPUTE_EVERY gates of a panel and once at
# the end of the walk; a disagreement beyond DRIFT_TOL relative to the
# largest value or row-block contribution seen (the scale healthy float
# drift tracks) is an error.
RECOMPUTE_EVERY = 1000
DRIFT_TOL = 1e-7


@dataclass
class PotentialTrace:
    """Per-step potential values, moves, and two-row change bounds (index = step)."""

    values: list[float]
    per_step_delta: list[float]
    per_step_bound: list[float]
    touched_sets: list[tuple[int, ...]]


@dataclass
class WindowWalk:
    """What ``ledger_walk`` measures of each unit w (a gate, or a window of R
    gates) on its rows I = ``unit_rows[w]``: the products |A_I|_F |B_I|_F
    at the unit's start and, with the ledger, at its end, and its move."""

    unit_rows: UnitRows
    phi_identity: float
    phi_final: float
    start_products: np.ndarray
    end_products: np.ndarray | None
    moves: np.ndarray | None


def ledger_walk(
    algorithm: LinearAlgorithm,
    P: np.ndarray | None,
    Q: np.ndarray | None,
    R: int = 1,
    ledger: bool = True,
) -> WindowWalk:
    """The one walk of ``trace_potential`` (R = 1), ``scan_bottlenecks`` and
    ``verify_bottleneck_chain``: ``replay_layers`` over the windows of R gates
    layered as units (``layer(algorithm, R)``, cut for ``panel_width(n)``),
    one column panel at a time.

    Units in one block touch disjoint rows, so the block holds each unit's
    sorted rows at its start and at its end, and a few ``squared_row_norms``
    calls per block give every unit's |A_I|_F^2 and |B_I|_F^2; they are
    summed over the panels and ``norm_products`` takes the square roots at
    the end.  With ``ledger`` the walk also measures each unit's end and
    keeps a row ledger per panel; a unit's move is the change in its rows'
    contribution, summed over the panels.  A block of reflections (c = -1
    only) carries its rows' contributions, since negating both factors
    leaves every entry product bitwise unchanged.  Sums over the panels
    start at -0.0 (or 0.0 for squares, which are never negative), so one
    panel gives its own numbers bit for bit.  The layering, the panels, the
    ledgers and the workspace die with the call.

    The ledger's drift guard has two checks; both raise ``ArithmeticError``
    and both fail on a NaN drift.  Each panel recomputes its potential at a
    block boundary whenever the next block would take the gates applied
    since its last recheck past ``RECOMPUTE_EVERY``, and its incremental
    total must match within ``DRIFT_TOL`` of the largest value or unit
    contribution seen.  At the end the moves must add up to the change of
    the potential within ``DRIFT_TOL`` of that scale and both end values.
    """
    if not 1 <= R <= algorithm.n // 2:
        raise ValueError(f"window size {R} out of range [1, {algorithm.n // 2}]")
    blocks = layer(algorithm, R, width=panel_width(algorithm.n))
    # the blocks whose gates are all reflections (rotations have c = 1)
    kept = np.cumsum(algorithm.arrays.c[blocks.gates] != -1.0)
    kept = np.concatenate(([0], kept))[blocks.gate_cuts[:: 2 * R]]
    reflections = (kept[1:] == kept[:-1]).tolist()
    workspace = Workspace()
    phi_identity = phi_final = -0.0
    units = len(blocks.unit_rows)
    squares = np.zeros((4 if ledger else 2, units))  # |A_I|^2, |B_I|^2 at the start, then the end
    moves = np.full(units, -0.0) if ledger else None
    scale = 1.0
    # an overflow is reported as an error, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for A, B in column_panels(algorithm.n, P, Q):
            total = quasi_entropy(A, B, workspace)  # the panel's incremental potential
            phi_identity += total
            scale = max(scale, abs(total))
            if ledger:
                contribs = row_contribs(A, B, workspace).copy()
            unchecked = done = 0
            for k, (block, a0, b0, a1, b1) in enumerate(
                replay_layers(blocks, A, B, workspace, after=ledger)
            ):
                for x, sums in zip((a0, b0, a1, b1), squares):
                    for size, first, end in block.groups:
                        start = block.unit_starts[first]
                        rows = x[start : start + (end - first) * size]
                        sums[block.units[first:end]] += squared_row_norms(
                            rows.reshape(end - first, size * x.shape[1])
                        )
                if not ledger:
                    continue
                old = contribs[block.rows]
                new = old if reflections[k] else row_contribs(a1, b1, workspace)
                before = np.add.reduceat(old, block.unit_starts)
                contribs[block.rows] = new
                after = np.add.reduceat(new, block.unit_starts)
                delta = after - before
                moves[block.units] += delta
                total += float(delta.sum())
                scale = max(scale, float(np.abs(before).max()), float(np.abs(after).max()))
                unchecked += block.gates
                done += block.gates
                if k + 1 < len(blocks) and unchecked + blocks.gate_counts[k + 1] > RECOMPUTE_EVERY:
                    exact = quasi_entropy(A, B, workspace)
                    if not abs(exact - total) <= DRIFT_TOL * max(scale, abs(exact)):
                        raise ArithmeticError(
                            f"incremental potential drifted by {abs(exact - total):.3e} "
                            f"after {done} of {algorithm.m} gates"
                        )
                    unchecked = 0
            # no gate makes an entry that is not finite finite again
            if not (np.isfinite(A).all() and np.isfinite(B).all()):
                raise ArithmeticError(
                    "the trajectory overflowed: M(m) P or M(m)^{-T} Q is not finite"
                )
            phi_final += quasi_entropy(A, B, workspace)
    if not (math.isfinite(phi_identity) and math.isfinite(phi_final)):
        raise ArithmeticError("the potential is not finite")
    if ledger:
        residual = abs(float(moves.sum()) - (phi_final - phi_identity))
        if not residual <= DRIFT_TOL * max(scale, abs(phi_identity), abs(phi_final)):
            raise ArithmeticError(f"window moves miss the potential change by {residual:.3e}")
    return WindowWalk(
        unit_rows=blocks.unit_rows,
        phi_identity=phi_identity,
        phi_final=phi_final,
        start_products=norm_products(squares[0], squares[1]),
        end_products=norm_products(squares[2], squares[3]) if ledger else None,
        moves=moves,
    )


def trace_potential(
    algorithm: LinearAlgorithm,
    P: np.ndarray | None = None,
    Q: np.ndarray | None = None,
) -> PotentialTrace:
    """Trace the projected potential along the trajectory.

    ``ledger_walk`` at R = 1, whose units are the gates: a gate's move is
    the change in its own rows' contribution, summed over the panels, and
    the walk's drift guard checks the moves.  Values are the initial
    potential plus a running sum of the moves in step order; they are not
    snapped to a recheck, since a block boundary is not a step.  A
    rotation's bound is ``change_bound(2, start, end)`` of its rows' block
    products, the rows in ascending order as in every window, so it is the
    R = 1 chain's window bound bit for bit; a constant's bound is 0.
    """
    walk = ledger_walk(algorithm, P, Q)
    values = np.cumsum(np.concatenate([[walk.phi_identity], walk.moves]))
    bounds = np.where(
        algorithm.arrays.rotation, change_bound(2, walk.start_products, walk.end_products), 0.0
    )
    check_finite(bounds, lambda g: f"the change bound of step {g + 1}")
    gate_i, gate_j = algorithm.arrays.i.tolist(), algorithm.arrays.j.tolist()
    return PotentialTrace(
        values=values.tolist(),
        per_step_delta=[0.0] + np.abs(np.diff(values)).tolist(),
        per_step_bound=[0.0] + bounds.tolist(),
        touched_sets=[()] + [(i,) if j < 0 else (i, j) for i, j in zip(gate_i, gate_j)],
    )


# The sweeps of ``gatelab lemma`` live in ``lemma``; these names, which
# ``cmd_lemma`` calls and the benchmark traces here, load it on first access
# (PEP 562), so that ``trace``, ``scan`` and ``chain`` do not.
_LEMMA_NAMES = {
    "sweep_nonsingular_change_bound",
    "sweep_orthogonal_change_bound",
    "sweep_unit_pair_bound",
}


def __getattr__(name: str):
    if name not in _LEMMA_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import lemma

    return getattr(lemma, name)
