"""The matrix trajectory of in-place linear algorithms: compiled gates and walks.

The gate objects, ``LinearAlgorithm`` and the text format live in ``model``,
which needs no numpy; this module imports the three it uses, plus
``read_algorithm`` and ``write_algorithm``, which callers reach as
``gates.read_algorithm`` and ``gates.write_algorithm``.  Composing the
first t gates gives the trajectory M(0)=Id, M(1), ..., M(m).  Alongside M we
maintain the inverse transpose, which evolves under equally cheap row
operations: a rotation applies to its rows unchanged (rotations are
orthogonal), a scaling by c scales the matching row by 1/c.  Every gate
therefore touches at most two rows of both matrices.

A ``LinearAlgorithm`` is compiled once into four arrays (``GateArrays``: i,
j, first and second; cos and sin for a rotation, c and 1/c for a constant,
whose j is -1), and every walk applies gates from those numbers, in one of
two kernels, which rotate through the one row-pair rotation ``rotate_pair``:

- ``replay`` applies one gate per step to the caller's arrays in place:
  ``apply_to_vector``'s vector, (Id, Id) for ``validate``, or the sample
  columns that ``simulate`` rounds.
  ``validate`` reads only the rows and columns of M(t) M(t)^{-T}.T that
  gate t rewrites, and runs an SVD only at t = 0 and after a constant with
  |c| != 1, the only gates that change singular values.
- ``replay_layers`` applies the gates in as-soon-as-possible layers
  (``layer``): the gates of one layer touch disjoint rows, gates that share
  a row keep their order, and each layer is split into blocks of at most
  ``BLOCK_ELEMENTS`` matrix elements per side.  Each run of a block's gates
  that share a step and a kind rewrites its rows of the matrices in place,
  all gates at once, with fancy indexing on the gates' own rows and scratch
  in a ``Workspace`` that the walk reuses, so the walk allocates nothing per
  block.  ``potential.ledger_walk`` (the one walk of ``trace_potential``,
  ``scan_bottlenecks`` and ``verify_bottleneck_chain``, which layers
  windows of R gates as units, R = 1 for the trace) and
  ``extract_directions`` (once, for its row norms) use it: the walk hands
  over every row of a block's units, gathered before and after the block
  and sorted within each unit, so a walk rates a whole block in a few numpy
  calls.

Gates act on rows, so each column of (M(t) P, M(t)^{-T} Q) evolves alone, and
the potential and every squared row or window norm is a sum over columns.
The two layered walks therefore take the columns in panels
(``column_panels``): n x w slices of P and Q, w = ``panel_width(n)``, each
walked over one layering cut for that width (``layer``'s default), adding
into per-gate or per-window sums (square roots come only at the end).  Every n with
n^2 <= ``PANEL_ELEMENTS`` (n <= 512) is one panel, the whole matrices, and
gives exactly the full-width numbers; more panels move the sums by ulps.

Both walks give bit-identical matrices: they share ``rotate_pair`` and the
row scalings, so every element sees the same elementwise multiplications
and additions in the same order (numpy's elementwise ufuncs never fuse or
reassociate); only the order in which disjoint rows are visited differs.

A single vector walks the same layering, cut for one column so that a
layer is one block (``VectorWalk``): ``push`` takes x to M(m) x or
M(m)^{-T} x and reports its entry at every touched (t, i) on the way, in
O(m) numpy work and a few calls per layer; ``row`` walks e_i back through
the transposed gates to give one row of M(t) or M(t)^{-T}, the only way
the lab reads a single row.  ``extract_directions`` and the quantized
uncertainty check use them.  Both read the ``Blocks`` record and rotate in
numpy expressions of the same operations, which on a vector's few entries
per gate run measured faster than ``rotate_pair`` with scratch.

Coordinates are 0-based everywhere, including the text file format.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .model import Gate, LinearAlgorithm, Rotation
from .model import read_algorithm, write_algorithm  # noqa: F401 -- called through gates


class GateArrays(NamedTuple):
    """Gate g, applied at step g + 1, as entry g of four read-only arrays.

    A rotation of rows i and j stores ``math.cos`` and ``math.sin`` of its
    angle as ``first`` and ``second``; a constant c on row i stores j = -1,
    c and ``1.0 / c``.  These are the numbers every walk applies.
    """

    i: np.ndarray
    j: np.ndarray
    first: np.ndarray
    second: np.ndarray

    @property
    def rotation(self) -> np.ndarray:
        """Whether each gate is a rotation (bool)."""
        return self.j >= 0

    @classmethod
    def compile(cls, gates: tuple[Gate, ...]) -> GateArrays:
        rot = [isinstance(g, Rotation) for g in gates]
        arrays = cls(
            np.array([g.i for g in gates], np.int64),
            np.array([g.j if r else -1 for r, g in zip(rot, gates)], np.int64),
            np.array([math.cos(g.theta) if r else g.c for r, g in zip(rot, gates)], float),
            np.array([math.sin(g.theta) if r else 1.0 / g.c for r, g in zip(rot, gates)], float),
        )
        for array in arrays:
            array.setflags(write=False)
        return arrays


def rotate_pair(
    xi: np.ndarray, xj: np.ndarray, cos_t, sin_t, scratch: tuple[np.ndarray, np.ndarray]
) -> None:
    """The one rotation of both matrix walks, in place: xi becomes cos*xi +
    sin*xj and xj cos*xj - sin*xi, the cross products going to the two
    ``scratch`` arrays of the rows' shape.  ``replay`` rotates two row views
    (``rotate_rows``), ``replay_layers`` a run of gathered row pairs by a
    column of cos and sin."""
    sin_xj, sin_xi = scratch
    np.multiply(sin_t, xj, out=sin_xj)
    np.multiply(sin_t, xi, out=sin_xi)
    np.add(np.multiply(cos_t, xi, out=xi), sin_xj, out=xi)
    np.subtract(np.multiply(cos_t, xj, out=xj), sin_xi, out=xj)


def rotate_rows(
    A: np.ndarray, i: int, j: int, cos_t: float, sin_t: float, scratch: np.ndarray
) -> None:
    """Rotate rows i, j of A in place (``rotate_pair`` on their views).

    ``scratch`` holds two rows of at most a row's columns: rows with more
    columns than it are rotated a slice of that many columns at a time, so
    rotating long sample rows allocates nothing.
    """
    xi, xj = A[i, ...], A[j, ...]  # views, also of a vector's entries
    if xi.ndim and len(xi) > scratch.shape[1]:
        width = scratch.shape[1]
        for lo in range(0, len(xi), width):
            part = A[:, lo : lo + width]
            rotate_rows(part, i, j, cos_t, sin_t, scratch[:, : part.shape[1]])
        return
    rotate_pair(xi, xj, cos_t, sin_t, (scratch[0, ...], scratch[1, ...]))


def apply_to_vector(
    algorithm: LinearAlgorithm, x: Iterable[float], upto_t: int | None = None
) -> np.ndarray:
    """Return M(upto_t) x by sequential gate application (never a dense multiply)."""
    x = np.asarray(x, dtype=float)
    if x.shape != (algorithm.n,):
        raise ValueError(f"expected vector of length {algorithm.n}, got shape {x.shape}")
    y = x.copy()
    for _ in replay(algorithm, y, stop=upto_t):
        pass
    return y


def replay(
    algorithm: LinearAlgorithm,
    A: np.ndarray,
    B: np.ndarray | None = None,
    stop: int | None = None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Apply gates 1..stop (default m) to A, in place, one per step.

    A is a float array of leading dimension n: a vector, an n x n matrix or
    n x samples columns.  B, if given, has A's shape and receives the
    inverse-transpose operations (1/c for a constant), so from (P, Q) the
    pair walks (M(t) P, M(t)^{-T} Q).  Yields ``(t, rows)`` once gate t is
    applied, ``rows`` the rows it rewrote (``()`` at t = 0); copy the arrays
    to keep a snapshot.  Rotations of rows wider than ``ROTATE_COLUMNS`` go
    that many columns at a time.  The arguments are checked when ``replay``
    is called.
    """
    stop = algorithm.m if stop is None else stop
    if not 0 <= stop <= algorithm.m:
        raise ValueError(f"step index {stop} out of range [0, {algorithm.m}]")
    shape = getattr(A, "shape", ())
    if shape[:1] != (algorithm.n,) or (B is not None and getattr(B, "shape", None) != shape):
        raise ValueError(f"A must be an array of {algorithm.n} rows and B one of A's shape")
    scratch = np.empty((2, *A[0, :ROTATE_COLUMNS].shape)) if A.ndim > 1 else np.empty(2)
    arrays = algorithm.arrays

    def steps():
        yield 0, ()
        # the gate columns as Python numbers, a bounded chunk at a time
        for lo in range(0, stop, REPLAY_CHUNK):
            hi = min(lo + REPLAY_CHUNK, stop)
            columns = zip(*(column[lo:hi].tolist() for column in arrays))
            for t, (i, j, first, second) in enumerate(columns, start=lo + 1):
                if j >= 0:
                    rotate_rows(A, i, j, first, second, scratch)
                    if B is not None:
                        rotate_rows(B, i, j, first, second, scratch)
                    yield t, (i, j)
                else:
                    A[i] *= first
                    if B is not None:
                        B[i] *= second
                    yield t, (i,)

    return steps()


# Gates per chunk of ``replay``'s Python-number columns: at most about 140
# bytes a gate, so a chunk holds under 40 kB however long the gate list.
REPLAY_CHUNK = 256

# Columns per pass of ``replay``'s rotations: their two temporaries take at
# most 256 kB however many sample columns A holds, so ``simulate`` holds its
# sample array and little more.
ROTATE_COLUMNS = 1 << 14


# The most matrix elements (rows times n) a layered block gathers per side,
# and the most a potential evaluates at once.  Wide layers are cut into
# blocks so that the gathered rows and their temporaries stay cache-sized:
# in a prototype on a 2-core Xeon VM, tracing WHT n=1024 with uncut layers
# was no faster than gate by gate and took 27% more memory; budgets from
# 2^14 to 2^17 elements ran about equally fast.
BLOCK_ELEMENTS = 1 << 15


# The most matrix elements (n times the panel width) a layered walk holds per
# side.  Gates act on rows, so every column of M(t) P and M(t)^{-T} Q evolves
# alone, and a walk can take the columns a panel at a time.  2^18 keeps every
# n <= 512 on one panel (the full matrices) and gives WHT n=1024 four panels
# of 256 columns: 4 MiB for A and B instead of 16.
PANEL_ELEMENTS = 1 << 18


def panel_width(n: int) -> int:
    """Columns per panel: n while n^2 <= ``PANEL_ELEMENTS``, otherwise the
    largest even w with n*w <= ``PANEL_ELEMENTS`` (2 at least).

    Blocks are cut to ``BLOCK_ELEMENTS // width`` rows, so a full layer takes
    as many block visits over all panels as on one; only layers thinner than
    a block are visited once per panel.
    """
    if n * n <= PANEL_ELEMENTS:
        return n
    return max(2, PANEL_ELEMENTS // n // 2 * 2)


def column_panels(
    n: int, P: np.ndarray | None = None, Q: np.ndarray | None = None
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The column panels (P[:, lo:hi], Q[:, lo:hi]) of ``panel_width(n)``
    columns, the last one ragged; P or Q of None means identity.

    Each panel is a C-contiguous float array in one of two buffers that the
    generator reuses, so it is overwritten by the next: finish with a panel
    before taking the next one.  Identity columns are written directly, never
    through an n x n identity.  With one panel (n^2 <= ``PANEL_ELEMENTS``)
    the pair is exactly (P, Q) as floats.  The arguments are checked when
    ``column_panels`` is called.
    """
    P = None if P is None else np.asarray(P, dtype=float)
    Q = None if Q is None else np.asarray(Q, dtype=float)
    if any(X is not None and X.shape != (n, n) for X in (P, Q)):
        raise ValueError(f"P and Q must be {n}x{n}")
    width = panel_width(n)

    def panels():
        buffers = np.empty((2, n * width))
        for lo in range(0, n, width):
            k = min(width, n - lo)
            pair = []
            for X, buffer in zip((P, Q), buffers):
                panel = buffer[: n * k].reshape(n, k)
                if X is None:
                    panel.fill(0.0)
                    panel[np.arange(lo, lo + k), np.arange(k)] = 1.0
                else:
                    np.copyto(panel, X[:, lo : lo + k])
                pair.append(panel)
            yield tuple(pair)

    return panels()


class Workspace:
    """Named scratch arrays that a walk reuses from block to block.

    ``take(name, shape, dtype)`` returns a C-contiguous view of the buffer
    called ``name``, allocated on first use and again only when a larger
    shape comes.  Every per-block array of a walk lives in one, so the walk
    allocates nothing per block: fresh block-sized temporaries would each be
    mapped and unmapped by the C allocator, which costs more page faults
    than the arithmetic.  A view is valid until the next ``take`` of its
    name; ``"scratch"`` holds temporaries that never outlive one call.
    """

    def __init__(self) -> None:
        self._buffers: dict[str, np.ndarray] = {}
        self._views: dict[str, np.ndarray] = {}  # the last view of each buffer

    def take(self, name: str, shape: tuple[int, ...], dtype=float) -> np.ndarray:
        view = self._views.get(name)
        if view is not None and view.shape == shape:
            return view
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        view = self._views[name] = buffer[:size].reshape(shape)
        return view


def check_finite(values: np.ndarray, name: Callable[[int], str]) -> None:
    """Raise ``ArithmeticError`` if an entry of ``values`` is not finite,
    naming the first such entry k as ``name(k)``."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ArithmeticError(f"{name(int(bad[0]))} is not finite")


def gather_rows(x: np.ndarray, rows: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``x[rows]`` written into ``out``.  The rows are in range; ``mode="clip"``
    skips the bounds check, for which ``np.take`` would buffer ``out``."""
    return x.take(rows, 0, out, "clip")


def squared_row_norms(X: np.ndarray) -> np.ndarray:
    """The squared 2-norm of every row (last axis) of an array: the dot
    product that ``np.matmul`` reaches through BLAS ``ddot``, the call
    ``np.linalg.norm`` makes, so its square root is ``np.linalg.norm(row)``
    bit for bit; a row holding the raveled rows of a block gives that
    block's |A_I|_F^2.  Every row and block norm of the lab is this one."""
    return (X[..., None, :] @ X[..., None])[..., 0, 0]


class Block(NamedTuple):
    """Units of one layer (gates, or windows of R gates) on disjoint rows.

    ``rows`` holds the units' rows, unit after unit and each unit's in
    ascending order; unit ``units[u]`` starts at ``unit_starts[u]``.  Units
    are sorted by row count, then by index, and ``groups`` lists each run of
    equal-sized units as (rows per unit, first position, end position) in
    ``units``.
    """

    units: np.ndarray
    rows: np.ndarray
    unit_starts: np.ndarray
    groups: tuple[tuple[int, int, int], ...]


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
        return Block(self.units[us:ue], self.rows[rs:re], self.unit_starts[us:ue], self.groups[b])


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

    levels = []
    free = [0] * n  # the first layer in which each row is free
    flat_list, bounds = flat.tolist(), starts.tolist()
    for w in range(W):
        rows = flat_list[bounds[w] : bounds[w + 1]]
        level = max([free[r] for r in rows])
        for r in rows:
            free[r] = level + 1
        levels.append(level)
    level = np.array(levels, dtype=np.int64)

    # units by layer, then by row count, then by index; each layer is cut
    # into blocks of at most ``cap`` rows
    order = np.lexsort((sizes, level))
    sizes_o = sizes[order]
    cap = max(1, BLOCK_ELEMENTS // (panel_width(n) if width is None else width))
    cuts = []
    used, current = 0, -1
    for p, (lv, size) in enumerate(zip(level[order].tolist(), sizes_o.tolist())):
        if lv != current or used + size > cap:
            cuts.append(p)
            used, current = 0, lv
        used += size
    cuts.append(W)
    block_of = np.repeat(np.arange(len(cuts) - 1), np.diff(cuts))
    offsets = np.zeros(W + 1, dtype=np.int64)  # where each unit's rows start, in block order
    np.cumsum(sizes_o, out=offsets[1:])
    row_cuts = offsets[cuts]
    rows_o = flat[np.repeat(starts[order] - offsets[:-1], sizes_o) + np.arange(offsets[-1])]
    unit_starts = offsets[:-1] - row_cuts[block_of]

    groups: list[list[tuple[int, int, int]]] = [[] for _ in range(len(cuts) - 1)]
    run_starts = np.zeros(W, dtype=bool)  # a new block, or a new unit size
    run_starts[cuts[:-1]] = True
    run_starts[1:] |= sizes_o[1:] != sizes_o[:-1]
    runs = np.flatnonzero(run_starts).tolist()
    for first, end in zip(runs, runs[1:] + [W]):
        b = int(block_of[first])
        groups[b].append((int(sizes_o[first]), first - cuts[b], end - cuts[b]))

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
    Yields ``(block, a0, b0, a1, b1)`` after each block: the block's rows
    of A and B, in ``block.rows`` order, before and after it; with
    ``before`` or ``after`` False that pair is not gathered and is None.
    They, and every temporary of the walk, live in ``workspace`` (a fresh
    one if None), which grows to the largest block and is then reused:
    they are overwritten by the next block, so copy what must outlive it.
    Every element of A and B ends bit-identical to ``replay``'s, and right
    after a block the rows of each of its units are those ``replay`` shows
    right after the unit's last gate.
    """
    if workspace is None:
        workspace = Workspace()
    n = A.shape[1]
    rows_i, rows_j = blocks.gate_rows
    first, second = blocks.first[:, None], blocks.second[:, None]
    cuts, runs = blocks.gate_cuts, 2 * blocks.R
    for b, block in enumerate(blocks):
        shape = (2, block.rows.size, n)
        a0 = b0 = a1 = b1 = None
        if before:
            out = workspace.take("before", shape)
            a0, b0 = gather_rows(A, block.rows, out[0]), gather_rows(B, block.rows, out[1])
        for s in range(runs * b, runs * (b + 1), 2):
            r0, r1, r2 = cuts[s : s + 3]
            if r1 > r0:
                i, j = rows_i[r0:r1], rows_j[r0:r1]
                cos, sin = first[r0:r1], second[r0:r1]
                xi, xj, *scratch = workspace.take("scratch", (4, r1 - r0, n))
                for x in (A, B):
                    rotate_pair(gather_rows(x, i, xi), gather_rows(x, j, xj), cos, sin, scratch)
                    x[i] = xi
                    x[j] = xj
            if r2 > r1:
                i = rows_i[r1:r2]
                (scaled,) = workspace.take("scratch", (1, r2 - r1, n))
                for x, scale in ((A, first[r1:r2]), (B, second[r1:r2])):
                    x[i] = np.multiply(gather_rows(x, i, scaled), scale, out=scaled)
        if after:
            out = workspace.take("after", shape)
            a1, b1 = gather_rows(A, block.rows, out[0]), gather_rows(B, block.rows, out[1])
        yield block, a0, b0, a1, b1


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


@dataclass
class TrajectoryDiagnostics:
    """Replay report: inverse consistency and per-step condition numbers."""

    n: int
    m: int
    max_residual: float
    kappas: list[float]
    max_kappa: float
    stable: bool


# A trajectory whose inverse-consistency residual exceeds RESIDUAL_TOL is
# flagged as numerically unstable (``validate``).
RESIDUAL_TOL = 1e-6


def validate(algorithm: LinearAlgorithm) -> TrajectoryDiagnostics:
    """Replay the trajectory and report consistency diagnostics, O(n^2) per gate.

    Residual is the max entrywise deviation of M(t) * M(t)^{-T}.T from the
    identity over all t.  It is exactly 0 at t = 0, and gate t rewrites only
    rows i, j of both matrices, so only rows i, j and columns i, j of the
    product can change: the running maximum reads those alone.  Rotations
    and reflections (|c| = 1) leave singular values unchanged, so the
    condition number comes from an SVD at t = 0 and after each constant
    with |c| != 1, and is repeated at every other step.  A residual above
    ``RESIDUAL_TOL`` flags the algorithm as numerically unstable (only
    pathological constants can cause this); a residual that is not finite
    (an overflowed trajectory), or a condition number that is not finite,
    raises ``ArithmeticError`` naming its first such step.
    """
    arrays = algorithm.arrays
    rescales = ((arrays.j < 0) & (np.abs(arrays.first) != 1.0)).tolist()
    max_residual = 0.0
    kappas: list[float] = []
    M, Minv_T = np.eye(algorithm.n), np.eye(algorithm.n)
    changed = np.empty((4, algorithm.n))  # the rewritten rows, then the rewritten columns
    # an overflow shows as a non-finite residual on the rows it hit, which is
    # reported as an error, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for t, rows in replay(algorithm, M, Minv_T):
            if rows:
                k = len(rows)
                rows = list(rows)
                lines = changed[: 2 * k]
                np.matmul(M[rows], Minv_T.T, out=lines[:k])
                np.matmul(Minv_T[rows], M.T, out=lines[k:])  # columns, as rows k..2k-1
                lines[range(2 * k), rows + rows] -= 1.0
                residual = float(np.abs(lines, out=lines).max())
                if not math.isfinite(residual):
                    raise ArithmeticError(f"inverse-consistency residual is not finite at step {t}")
                max_residual = max(max_residual, residual)
            if t == 0 or rescales[t - 1]:
                svals = np.linalg.svd(M, compute_uv=False)
                kappa = float(svals[0] / svals[-1])
                if not math.isfinite(kappa):
                    raise ArithmeticError(f"condition number is not finite at step {t}")
            kappas.append(kappa)
    return TrajectoryDiagnostics(
        n=algorithm.n,
        m=algorithm.m,
        max_residual=max_residual,
        kappas=kappas,
        max_kappa=max(kappas),
        stable=max_residual <= RESIDUAL_TOL,
    )
