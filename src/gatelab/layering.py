"""As-soon-as-possible layers of gates, and the walks over them.

``layer`` packs an algorithm's units (single gates, or windows of R gates)
into layers: the units of one layer touch disjoint rows, units that share a
row keep their order, and each layer is split into blocks of at most
``gates.BLOCK_ELEMENTS`` matrix elements per side.  Its levels come from one
loop over the units' padded row columns, and its cuts and run groups from
numpy and a step per block.

``replay_layers`` walks the matrix pair over the blocks.  Each run of a
block's gates that share a step and a kind rewrites its rows of the
matrices in place, all gates at once, with fancy indexing on the gates' own
rows and scratch in a ``gates.Workspace`` that the walk reuses, so the walk
allocates no block-sized array.  ``potential.ledger_walk`` (the one walk of
``trace_potential``, ``scan_bottlenecks`` and ``verify_bottleneck_chain``,
which layers windows of R gates as units, R = 1 for the trace) and
``extract_directions`` (once, for its row norms) use it: the walk hands over
the rows of a block's live units, gathered before and after the block and
sorted within each unit, so a walk rates a block in a few numpy calls.
Rows that are +0.0 in every column of both matrices are dormant: a column
panel of the identity starts with n - w of them, which the butterflies fill
in only over the first layers.  A unit whose rows are all dormant sleeps:
its gates act on one proxy column per side instead of its rows, and it is
not handed over, since zero rows add nothing to any norm or potential.  The
matrices are bit-identical to ``gates.replay``'s: both rotate through
``gates.rotate_pair`` and scale rows by the same numbers, and the proxies
carry each dormant row's signed zero.

A single vector walks the same layering, cut for one column so that a
layer is one block (``VectorWalk``): ``push`` takes x to M(m) x or
M(m)^{-T} x and reports its entry at every touched (t, i) on the way, in
O(m) numpy work and a few calls per layer; ``row`` walks e_i back through
the transposed gates to give one row of M(t) or M(t)^{-T}, the only way
the lab reads a single row.  ``extract_directions`` and the quantized
uncertainty check use them.  Both read the ``Blocks`` record and rotate in
numpy expressions of the same operations, which on a vector's few entries
per gate run measured faster than ``rotate_pair`` with scratch.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from typing import TYPE_CHECKING, Iterator, NamedTuple

import numpy as np

from .gates import BLOCK_ELEMENTS, Workspace, gather_rows, panel_width, rotate_pair

if TYPE_CHECKING:
    from .model import LinearAlgorithm


class Block(NamedTuple):
    """Units of one layer (gates, or windows of R gates) on disjoint rows.

    ``rows`` holds the units' rows, unit after unit and each unit's in
    ascending order; unit ``units[u]`` starts at ``unit_starts[u]``.  Units
    are sorted by row count, then by index, and ``groups`` lists each run of
    equal-sized units as (rows per unit, first position, end position) in
    ``units``.  ``positions`` indexes the rows in ``Blocks.rows``, the
    layering's row order: a slice for a whole block, an array for the live
    units that ``replay_layers`` hands over.
    """

    units: np.ndarray
    rows: np.ndarray
    unit_starts: np.ndarray
    groups: tuple[tuple[int, int, int], ...]
    positions: slice | np.ndarray


class UnitRows(Sequence):
    """Each unit's rows as an ascending tuple; unit w's are ``rows[starts[w]:starts[w + 1]]``."""

    def __init__(self, rows: np.ndarray, starts: np.ndarray):
        self.rows, self.starts = rows, starts

    def __len__(self) -> int:
        return self.starts.size - 1

    def __getitem__(self, w: int) -> tuple[int, ...]:
        if not 0 <= w < len(self):
            raise IndexError(w)
        return tuple(self.rows[self.starts[w] : self.starts[w + 1]].tolist())


class Blocks(Sequence):
    """The algorithm's units of R consecutive gates, layered and cut into
    blocks, packed into arrays in block order.

    Unit w holds gates w*R .. min((w+1)*R, m) - 1 and rewrites the rows
    ``unit_rows[w]`` (ascending); ``layers`` counts the layers.  Block b
    holds the units ``units[cuts[b]:cuts[b + 1]]`` and the rows
    ``rows[row_cuts[b]:row_cuts[b + 1]]`` (``row_units`` names each row's
    unit); its gates are sorted by step, then rotations before constants,
    then by unit, ``gates`` lists them in that order, ``gate_cuts`` bounds
    each (block, step, kind) run and ``gate_counts`` counts each block's.
    ``gate_rows`` holds each gate's rows i and j of the matrix (j = i for a
    constant), and ``first`` and ``second`` its ``GateArrays`` numbers.
    Indexing makes a ``Block`` of views, so the layering keeps a dozen
    arrays in all rather than a dozen per block.
    """

    def __init__(self, R, unit_rows, layers, units, rows, unit_starts, row_units, cuts,
                 row_cuts, groups, gates, gate_cuts, gate_rows, first, second):
        self.R, self.unit_rows, self.layers = R, unit_rows, layers
        self.units, self.rows = units, rows
        self.unit_starts, self.row_units = unit_starts, row_units
        self.cuts, self.row_cuts, self.groups = cuts, row_cuts, groups
        self.gates, self.gate_cuts, self.gate_rows = gates, gate_cuts, gate_rows
        self.first, self.second = first, second
        self.gate_counts = [
            gate_cuts[2 * R * (b + 1)] - gate_cuts[2 * R * b] for b in range(len(groups))
        ]

    def __len__(self) -> int:
        return len(self.groups)

    def __getitem__(self, b: int) -> Block:
        if not 0 <= b < len(self):
            raise IndexError(b)
        us, ue = self.cuts[b], self.cuts[b + 1]
        rs, re = self.row_cuts[b], self.row_cuts[b + 1]
        return Block(self.units[us:ue], self.rows[rs:re], self.unit_starts[us:ue], self.groups[b],
                     slice(rs, re))


def _levels(n: int, columns: list[list[int]]) -> list[int]:
    """The as-soon-as-possible layer of each unit: one past the last layer
    that touched any of its rows.  Column k holds every unit's k-th row, a
    unit's spare slots repeating one of its rows."""
    free = [0] * n  # the first layer in which each row is free
    levels: list[int] = []
    add = levels.append
    if len(columns) == 2:  # single gates, as every trace and vector walk layers them
        for a, b in zip(*columns):
            level = free[a]
            if free[b] > level:
                level = free[b]
            free[a] = free[b] = level + 1
            add(level)
    else:
        get = free.__getitem__
        for rows in zip(*columns):
            level = max(map(get, rows))
            for r in rows:
                free[r] = level + 1
            add(level)
    return levels


def layer(algorithm: LinearAlgorithm, R: int = 1, width: int | None = None) -> Blocks:
    """As-soon-as-possible layering of the algorithm's units of R gates.

    A unit joins the layer after the last one that touched any of its rows,
    so units in one layer touch disjoint rows and units that share a row
    keep their order.  Each layer is cut into blocks of at most
    ``BLOCK_ELEMENTS`` elements per side (a unit is never split), for rows
    of ``width`` columns (default ``panel_width(n)``, the layered walks'
    panels).  The width moves only the cuts: units and rows come in the same
    order at every width.
    """
    if R < 1:
        raise ValueError(f"unit size must be at least 1, got {R}")
    n, m, arrays = algorithm.n, algorithm.m, algorithm.arrays
    W = -(-m // R)
    # each unit's distinct rows, ascending, packed unit after unit (-1 pads)
    ij = np.full((2, W * R), -1, dtype=np.int64)
    ij[0, :m], ij[1, :m] = arrays.i, arrays.j
    touched_rows = ij.reshape(2, W, R).transpose(1, 0, 2).reshape(W, 2 * R)
    touched_rows.sort(axis=1)
    keep = touched_rows >= 0
    keep[:, 1:] &= touched_rows[:, 1:] != touched_rows[:, :-1]
    sizes = keep.sum(axis=1)
    flat = touched_rows[keep]
    starts = np.zeros(W + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])

    # each unit's rows padded by repeats of its largest, one column per slot
    padded = np.where(touched_rows >= 0, touched_rows, touched_rows[:, -1:])
    levels = _levels(n, padded.T.tolist())
    level = np.array(levels, dtype=np.int64)

    # units by layer, then by row count, then by index; each layer is cut
    # into blocks of at most ``cap`` rows, a block ending at the last unit
    # whose rows still fit
    order = np.lexsort((sizes, level))
    sizes_o, level_o = sizes[order], level[order]
    cap = max(1, BLOCK_ELEMENTS // (panel_width(n) if width is None else width))
    offsets = np.zeros(W + 1, dtype=np.int64)  # where each unit's rows start, in block order
    np.cumsum(sizes_o, out=offsets[1:])
    layer_ends = np.flatnonzero(level_o[1:] != level_o[:-1]).tolist()
    cuts, row_offsets, p = [], offsets.tolist(), 0
    for end in layer_ends + [W - 1]:  # the last unit of each layer
        while p <= end:
            cuts.append(p)
            fit = bisect_right(row_offsets, row_offsets[p] + cap, p + 1, end + 2)
            p = max(p + 1, fit - 1)  # units p .. fit - 2 hold at most cap rows
    cuts.append(W)
    block_of = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
    row_cuts = offsets[cuts]
    rows_o = flat[np.repeat(starts[order] - offsets[:-1], sizes_o) + np.arange(offsets[-1])]
    unit_starts = offsets[:-1] - row_cuts[block_of]

    # each run of equal-sized units in a block, as (size, first, end)
    # positions within the block
    run_starts = np.zeros(W, dtype=bool)  # a new block, or a new unit size
    run_starts[cuts[:-1]] = True
    run_starts[1:] |= sizes_o[1:] != sizes_o[:-1]
    runs = np.flatnonzero(run_starts)
    run_blocks = block_of[runs]
    block_starts = np.array(cuts)[run_blocks]
    groups: list[list[tuple[int, int, int]]] = [[] for _ in range(len(cuts) - 1)]
    for b, size, first, end in zip(
        run_blocks.tolist(),
        sizes_o[runs].tolist(),
        (runs - block_starts).tolist(),
        (np.append(runs[1:], W) - block_starts).tolist(),
    ):
        groups[b].append((size, first, end))

    # gates by block, step, kind (rotations first) and unit position
    position = np.empty(W, dtype=np.int64)
    position[order] = np.arange(W)
    position = position[np.arange(m) // R]
    segment = (block_of[position] * R + np.arange(m) % R) * 2 + (arrays.j < 0)
    gates = np.lexsort((position, segment))
    i, j = arrays.i[gates], arrays.j[gates]
    return Blocks(
        R,
        unit_rows=UnitRows(flat, starts),
        layers=max(levels, default=-1) + 1,
        units=order,
        rows=rows_o,
        unit_starts=unit_starts,
        row_units=np.repeat(order, sizes_o),
        cuts=cuts,
        row_cuts=row_cuts.tolist(),
        groups=[tuple(g) for g in groups],
        gates=gates,
        gate_cuts=np.searchsorted(segment[gates], np.arange(2 * R * len(groups) + 1)).tolist(),
        gate_rows=np.stack((i, np.where(j < 0, i, j))),
        first=arrays.first[gates],
        second=arrays.second[gates],
    )


def _zero_rows(x: np.ndarray) -> np.ndarray:
    """Whether each row of x is +0.0 in every column: no entry has a bit set
    (a reduction over the row's bits, with no n x w temporary).  ``np.any``
    runs inner loops the walks already run, where a ``bitwise_or`` reduction
    mapped 128 kB more of numpy into every walking process."""
    return ~np.any(x.view(np.uint64), axis=1)


def _apply(
    A: np.ndarray,
    B: np.ndarray,
    gates: slice | np.ndarray,
    rotation: bool,
    blocks: Blocks,
    workspace: Workspace,
) -> None:
    """Apply the layering's gates ``gates`` (positions in its gate arrays,
    one (step, kind) run of a block, on disjoint rows) to A and B in place:
    ``rotate_pair`` or the row scalings of ``replay``, on rows gathered into
    the workspace and written back."""
    i = blocks.gate_rows[0][gates]
    first, second = blocks.first[gates, None], blocks.second[gates, None]
    if rotation:
        j = blocks.gate_rows[1][gates]
        xi, xj, *scratch = workspace.take("scratch", (4, i.size, A.shape[1]))
        for x in (A, B):
            rotate_pair(gather_rows(x, i, xi), gather_rows(x, j, xj), first, second, scratch)
            x[i] = xi
            x[j] = xj
    else:
        (scaled,) = workspace.take("scratch", (1, i.size, A.shape[1]))
        for x, scale in ((A, first), (B, second)):
            x[i] = np.multiply(gather_rows(x, i, scaled), scale, out=scaled)


def _live_units(block: Block, live: np.ndarray, keep: np.ndarray, sizes: np.ndarray) -> Block:
    """The part of ``block`` that holds its ``live`` units, whose rows are
    ``keep`` among the block's; ``sizes`` counts each unit's rows."""
    counts = [0, *np.cumsum(live).tolist()]  # live units before each position
    kept = sizes[live]
    return Block(
        block.units[live],
        block.rows[keep],
        np.cumsum(kept) - kept,
        tuple((size, counts[f], counts[e]) for size, f, e in block.groups if counts[e] > counts[f]),
        block.positions.start + np.flatnonzero(keep),
    )


def replay_layers(
    blocks: Blocks,
    A: np.ndarray,
    B: np.ndarray,
    workspace: Workspace | None = None,
    before: bool = True,
    after: bool = True,
) -> Iterator[tuple]:
    """Apply the blocks of a layering (``layer``) to A and B in place, in order.

    Each (step, kind) run of a block's gates rewrites its rows of A and B
    in place, all gates at once: ``rotate_pair`` and the row scalings of
    ``replay``, on rows gathered into the workspace and written back.

    Rows that are +0.0 in every column of both A and B at the start are
    dormant: every column of such a row sees the same operations on the same
    numbers, so one column per side stands for all of them.  A unit whose
    rows are all dormant at its start sleeps: its gates act on two n x 1
    proxy columns, one per side, through the same operations, and its rows
    of A and B are neither gathered nor rewritten.  A unit with a live row
    wakes its dormant rows first, writing the proxies' signed zeros across
    them, and the walk's end writes the rows still dormant from the
    proxies.  Gates keep every row an exact zero until it meets a live one
    (a constant and its reciprocal are finite), so a dormant row stays a
    zero row of A and B throughout, if of either sign.

    Yields ``(block, a0, b0, a1, b1)`` after each block: ``block`` holds
    the block's live units only (a ``Block`` of none when all sleep), and
    the arrays their rows of A and B, in ``block.rows`` order, before and
    after it; with ``before`` or ``after`` False that pair is not gathered
    and is None.  They, and every temporary of the walk, live in
    ``workspace`` (a fresh one if None), which grows to the largest block
    and is then reused: they are overwritten by the next block, so copy
    what must outlive it.  Right after a block the rows of each unit handed
    over are those ``replay`` shows right after the unit's last gate; a
    sleeping unit's rows are zero rows there.  Between blocks a dormant
    row of A and B holds +0.0 where ``replay`` may hold -0.0; once the walk
    is exhausted every element of A and B is bit-identical to ``replay``'s.
    """
    if workspace is None:
        workspace = Workspace()
    cuts, runs = blocks.gate_cuts, 2 * blocks.R
    rows_i = blocks.gate_rows[0]
    dormant = _zero_rows(A) & _zero_rows(B)
    asleep = int(np.count_nonzero(dormant))
    proxies = np.zeros((2, A.shape[0], 1))  # each dormant row's value, in A and in B
    for b, block in enumerate(blocks):
        handed = block
        if asleep:
            d = dormant[block.rows]
            if d.any():
                starts = block.unit_starts
                sizes = np.concatenate((starts[1:], [block.rows.size])) - starts
                live = ~np.logical_and.reduceat(d, starts)
                keep = np.repeat(live, sizes)
                wake = block.rows[d & keep]
                if wake.size:
                    A[wake] = proxies[0, wake]
                    B[wake] = proxies[1, wake]
                    dormant[wake] = False
                    asleep -= wake.size
                if not live.all():
                    handed = _live_units(block, live, keep, sizes)
        shape = (2, handed.rows.size, A.shape[1])
        a0 = b0 = a1 = b1 = None
        if before:
            out = workspace.take("before", shape)
            a0, b0 = gather_rows(A, handed.rows, out[0]), gather_rows(B, handed.rows, out[1])
        for s in range(runs * b, runs * (b + 1), 2):
            r0, r1, r2 = cuts[s : s + 3]
            for lo, hi, rotation in ((r0, r1, True), (r1, r2, False)):
                if hi == lo:
                    continue
                if handed is block:
                    _apply(A, B, slice(lo, hi), rotation, blocks, workspace)
                    continue
                sleeps = dormant[rows_i[lo:hi]]  # the gates of sleeping units
                for pair, gates in ((proxies, sleeps), ((A, B), ~sleeps)):
                    gates = lo + np.flatnonzero(gates)
                    if gates.size:
                        _apply(*pair, gates, rotation, blocks, workspace)
        if after:
            out = workspace.take("after", shape)
            a1, b1 = gather_rows(A, handed.rows, out[0]), gather_rows(B, handed.rows, out[1])
        yield handed, a0, b0, a1, b1
    if asleep:
        rest = np.flatnonzero(dormant)
        A[rest] = proxies[0, rest]
        B[rest] = proxies[1, rest]


class VectorWalk:
    """The layering of single gates compiled for walks of one vector.

    A vector's walk costs a few numpy calls per layer: the layering is cut
    for one column (``layer(algorithm, width=1)``), so each layer is one
    block while n <= ``BLOCK_ELEMENTS``.  ``rows[k]`` is the k-th row that a
    gate rewrites and ``steps[k]`` that gate's step (gate g is step g + 1),
    in the row order of the layering at any width, so entry k of ``push``
    lines up with row k of ``replay_layers`` over ``layer(algorithm)``.
    """

    def __init__(self, algorithm: LinearAlgorithm):
        self.n = algorithm.n
        self.blocks = blocks = layer(algorithm, width=1)
        self.steps = blocks.row_units + 1
        self._arrays = algorithm.arrays
        # R = 1: gate runs (block b, rotations) and (block b, constants) are
        # bounded by gate_cuts[2b : 2b + 3], each run in ascending gate order
        run_block = np.repeat(np.arange(len(blocks)), np.diff(blocks.gate_cuts[::2]))
        self._block_of = np.empty(algorithm.m, dtype=np.int64)
        self._block_of[blocks.gates] = run_block
        # the last block holding any of gates 0..g: a gate of an earlier
        # step may sit in a later layer than gate g
        self._last_block = np.maximum.accumulate(self._block_of)

    @property
    def rows(self) -> np.ndarray:
        return self.blocks.rows

    def push(
        self, x: np.ndarray, inverse_transpose: bool = False, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Walk x in place to M(m) x, or to M(m)^{-T} x with ``inverse_transpose``.

        Returns ``out`` (fresh if None): entry k is (M(t) x)_i, or
        (M(t)^{-T} x)_i, for (t, i) = (``steps[k]``, ``rows[k]``).  Every
        entry of x sees the operations of ``replay`` in order, so x ends
        bit-identical to ``apply_to_vector``.
        """
        blocks = self.blocks
        if out is None:
            out = np.empty(blocks.rows.size)
        cuts, row_cuts, (rows_i, rows_j) = blocks.gate_cuts, blocks.row_cuts, blocks.gate_rows
        first, second = blocks.first, blocks.second
        for b in range(len(row_cuts) - 1):
            r0, r1, r2 = cuts[2 * b : 2 * b + 3]
            if r1 > r0:
                ri, rj = rows_i[r0:r1], rows_j[r0:r1]
                xi, xj = x[ri], x[rj]
                x[ri] = first[r0:r1] * xi + second[r0:r1] * xj
                x[rj] = first[r0:r1] * xj - second[r0:r1] * xi
            if r2 > r1:
                x[rows_i[r1:r2]] *= second[r1:r2] if inverse_transpose else first[r1:r2]
            lo, hi = row_cuts[b], row_cuts[b + 1]
            gather_rows(x, blocks.rows[lo:hi], out[lo:hi])
        return out

    def row(self, t: int, i: int, inverse_transpose: bool = False) -> np.ndarray:
        """Row i of M(t), or of M(t)^{-T} with ``inverse_transpose``, as a fresh vector.

        The transposed walk: e_i through the gates t-1, ..., 0 transposed
        (M's rows) or inverted (M^{-T}'s), blocks in reverse order from the
        last block holding any of them, or from gate t's block if gate t
        rewrites row i, which then needs only gates of earlier layers.  A
        block may hold gates of later steps; they are left out.
        """
        x = np.zeros(self.n)
        x[i] = 1.0
        touched = t and i in (self._arrays.i[t - 1], self._arrays.j[t - 1])
        start = int((self._block_of if touched else self._last_block)[t - 1]) if t else -1
        blocks = self.blocks
        cuts, gates, (rows_i, rows_j) = blocks.gate_cuts, blocks.gates, blocks.gate_rows
        first, second = blocks.first, blocks.second
        for b in range(start, -1, -1):
            r0, r1, r2 = cuts[2 * b : 2 * b + 3]
            rot_end = r0 + int(np.searchsorted(gates[r0:r1], t))
            const_end = r1 + int(np.searchsorted(gates[r1:r2], t))
            if const_end > r1:
                x[rows_i[r1:const_end]] *= (second if inverse_transpose else first)[r1:const_end]
            if rot_end > r0:
                ri, rj = rows_i[r0:rot_end], rows_j[r0:rot_end]
                cos, sin = first[r0:rot_end], second[r0:rot_end]
                xi, xj = x[ri], x[rj]
                # the transposed rotation is ``rotate_pair`` on (xj, xi),
                # bit for bit: x[rj] = cos*xj + sin*xi, x[ri] = cos*xi - sin*xj
                x[ri] = cos * xi - sin * xj
                x[rj] = sin * xi + cos * xj
        return x
