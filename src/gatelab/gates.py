"""The matrix trajectory of in-place linear algorithms: compiled gates and walks.

The gate objects, ``LinearAlgorithm`` and the text format live in ``model``,
which needs no numpy.  ``read_algorithm`` reads a gate file through
``model``'s one parser and compiles its columns straight into
``GateArrays``, building no gate object; ``write_algorithm`` is ``model``'s,
which callers reach as ``gates.write_algorithm``.  Composing the first t
gates gives the trajectory M(0)=Id, M(1), ..., M(m).  Alongside M we
maintain the inverse transpose, which evolves under equally cheap row
operations: a rotation applies to its rows unchanged (rotations are
orthogonal), a scaling by c scales the matching row by 1/c.  Every gate
therefore touches at most two rows of both matrices.

A ``LinearAlgorithm`` is compiled once into four arrays (``GateArrays``: i,
j, first and second; cos and sin for a rotation, c and 1/c for a constant,
whose j is -1), and every walk applies gates from those numbers, in one of
two kernels, which rotate through the one row-pair rotation ``rotate_pair``:

- ``replay`` (here) applies one gate per step to the caller's arrays in
  place: ``apply_to_vector``'s vector, (Id, Id) for ``validate``, or the
  sample columns that ``simulate`` rounds.
  ``validate`` reads only the rows and columns of M(t) M(t)^{-T}.T that
  gate t rewrites, and runs an SVD only at t = 0 and after a constant with
  |c| != 1, the only gates that change singular values.
- ``layering.replay_layers`` applies the gates in as-soon-as-possible
  layers, a block of rows at a time; its module says how.  It lives apart
  so that the processes that never layer (``simulate``, ``lemma``,
  ``validate``) never compile it.

Gates act on rows, so each column of (M(t) P, M(t)^{-T} Q) evolves alone, and
the potential and every squared row or window norm is a sum over columns.
The two layered walks therefore take the columns in panels
(``column_panels``): n x w slices of P and Q, w = ``panel_width(n)``, each
walked over one layering cut for that width (``layering.layer``'s default),
adding into per-gate or per-window sums (square roots come only at the
end).  Every n with n^2 <= ``PANEL_ELEMENTS`` (n <= 512) is one panel, the
whole matrices, and gives exactly the full-width numbers; more panels move
the sums by ulps.

Both walks give bit-identical matrices: they share ``rotate_pair`` and the
row scalings, so every element sees the same elementwise multiplications
and additions in the same order (numpy's elementwise ufuncs never fuse or
reassociate); only the order in which disjoint rows are visited differs.

Coordinates are 0-based everywhere, including the text file format.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from .model import LinearAlgorithm, parse_columns
from .model import write_algorithm  # noqa: F401 -- called through gates


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
    def compile(cls, columns: tuple) -> GateArrays:
        """Compile gate columns (i, j, value) (``LinearAlgorithm.columns``)."""
        i, j, value = columns
        m, cos, sin = len(i), math.cos, math.sin
        arrays = cls(
            np.fromiter(i, np.int64, m),
            np.fromiter(j, np.int64, m),
            np.fromiter([cos(v) if b >= 0 else v for b, v in zip(j, value)], float, m),
            np.fromiter([sin(v) if b >= 0 else 1.0 / v for b, v in zip(j, value)], float, m),
        )
        for array in arrays:
            array.setflags(write=False)
        return arrays


def read_algorithm(path: str) -> LinearAlgorithm:
    """Read a gate file (``model.parse_columns``) and compile its columns
    straight into ``GateArrays``, building no gate object.  The algorithm
    keeps the arrays and the values, 40 bytes per gate, and builds its gate
    objects from them only when ``gates`` is first read."""
    with open(path) as fh:
        n, columns = parse_columns(fh.read())
    arrays = GateArrays.compile(columns)
    kept = (arrays.i, arrays.j, np.fromiter(columns[2], float, arrays.i.size))
    return LinearAlgorithm.from_columns(n, kept, label=path, arrays=arrays)


def rotate_pair(
    xi: np.ndarray, xj: np.ndarray, cos_t, sin_t, scratch: tuple[np.ndarray, np.ndarray]
) -> None:
    """The one rotation of both matrix walks, in place: xi becomes cos*xi +
    sin*xj and xj cos*xj - sin*xi, the cross products going to the two
    ``scratch`` arrays of the rows' shape.  ``replay`` rotates two row views
    (``rotate_rows``), ``layering.replay_layers`` a run of gathered row pairs by a
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
    scratch: np.ndarray | None = None,
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Apply gates 1..stop (default m) to A, in place, one per step.

    A is a float array of leading dimension n: a vector, an n x n matrix or
    n x samples columns.  B, if given, has A's shape and receives the
    inverse-transpose operations (1/c for a constant), so from (P, Q) the
    pair walks (M(t) P, M(t)^{-T} Q).  Yields ``(t, rows)`` once gate t is
    applied, ``rows`` the rows it rewrote (``()`` at t = 0); copy the arrays
    to keep a snapshot.  Rotations go through two scratch rows: ``scratch``
    if the caller lends them, which it may use between steps, otherwise
    fresh ones of at most ``ROTATE_COLUMNS`` columns; wider rows are rotated
    that many columns at a time.  The arguments are checked when ``replay``
    is called.
    """
    stop = algorithm.m if stop is None else stop
    if not 0 <= stop <= algorithm.m:
        raise ValueError(f"step index {stop} out of range [0, {algorithm.m}]")
    shape = getattr(A, "shape", ())
    if shape[:1] != (algorithm.n,) or (B is not None and getattr(B, "shape", None) != shape):
        raise ValueError(f"A must be an array of {algorithm.n} rows and B one of A's shape")
    if scratch is None:
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
