"""Fixed-word-size execution: quantized replay, bit usage, uncertainty widths.

The simulator replays an algorithm on Gaussian inputs, rounding every written
coordinate to the nearest multiple of epsilon (ties to even) after each gate,
and scores each touch event by the expected word length

    bits(v) = log2(1 + |v| / epsilon) + 1,

a smooth surrogate for the length of the base-2 integer representation of
v / epsilon plus a sign bit.  The touch events are the n input coordinates at
t = 0, then each coordinate that gate t rewrites, in step order: at most
n + 2m.  A coordinate keeps its score until its next event, so the (step,
coordinate) cell takes the score of the coordinate's latest event.  Cells
whose mean exceeds the word budget are flagged as overflow.  Rotations
preserve the standard Gaussian law, so an all-rotation network keeps the bit
usage flat across all cells; planted row scalings shift it by exactly their
log2 magnitude.

The underflow side is delegated to direction extraction: each extracted
direction can only be pinned down to a width of epsilon times its magnitude,
while completion directions cost the plain epsilon of a stored word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from .gates import ROTATE_COLUMNS, LinearAlgorithm, replay

if TYPE_CHECKING:
    from .directions import DirectionSystem, ExtendedBasis, VolumeBound
    from .layering import VectorWalk

# Fixed vectorization width so results are byte-identical regardless of
# available memory; chunks degrade gracefully for very wide problems.
_CHUNK_BUDGET = 1 << 25


def _chunk_size(n: int, samples: int) -> int:
    if n * samples <= _CHUNK_BUDGET:
        return samples
    return max(1, _CHUNK_BUDGET // n)


# Spawn indices of 2**32 or more take two words of a child's entropy, which
# the bulk derivation in ``_seeds`` does not handle.
_MAX_SAMPLES = 1 << 32


def _check_draws(seed: int, samples: int) -> int:
    """The seed as an int; rejects what ``_draw_inputs`` cannot reproduce."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if samples > _MAX_SAMPLES:
        raise ValueError(f"at most 2**32 samples are supported, got {samples}")
    return int(seed)


def _draw_inputs(seed: int, lo: int, hi: int, sigma: float, n: int) -> np.ndarray:
    """Inputs of samples lo..hi-1 as the columns of an (n, hi - lo) array,
    drawn by ``_seeds.spawned_normals`` through one row buffer of at most
    2**15 floats, the bytes of one spawned generator per sample."""
    # Imported here: loading numpy.random would add about 15 ms to every
    # CLI start, and only the draws need it.
    from ._seeds import spawned_normals

    X = np.empty((n, hi - lo))
    spawned_normals(X, seed, lo, sigma)
    return X


def quantize(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Round to the nearest multiple of epsilon, ties to even."""
    return np.rint(values / epsilon) * epsilon


def _quantize_rows(X: np.ndarray, rows: Iterable[int], epsilon: float) -> None:
    """``quantize``'s operations on each of the rows of X, in place."""
    for r in rows:
        row = X[r]  # a view, so the row needs no temporaries
        np.multiply(np.rint(np.divide(row, epsilon, out=row), out=row), epsilon, out=row)


def _score_rows(
    X: np.ndarray,
    rows: Iterable[int],
    epsilon: float,
    bits: np.ndarray,
    max_abs: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """The e-th row's largest magnitude and its summed bits(v) = log2(1 + |v| /
    epsilon) + 1, into max_abs[e] and bits[e], one row at a time through a
    row-sized scratch array."""
    for e, r in enumerate(rows):
        np.abs(X[r], out=scratch)
        max_abs[e] = scratch.max()
        np.divide(scratch, epsilon, out=scratch)
        np.log2(np.add(scratch, 1.0, out=scratch), out=scratch)
        bits[e] = np.add(scratch, 1.0, out=scratch).sum()


@dataclass(eq=False)
class QuantizedRunStats:
    """Bit usage per touch event: event k scores row ``rows[k]`` as step
    ``steps[k]`` left it, by the mean of bits(v) over the samples
    (``event_bits[k]``) and the largest |v| (``event_max[k]``).  The (m+1, n)
    cell grids ``mean_bits``, ``max_abs`` and ``overflow_flags`` are filled
    from the events anew on every access; no other member needs them.
    """

    epsilon: float
    sigma: float
    samples: int
    word_budget: float
    steps: np.ndarray  # int (E,), non-decreasing
    rows: np.ndarray  # int (E,)
    event_bits: np.ndarray  # (E,)
    event_max: np.ndarray  # (E,)

    @property
    def shape(self) -> tuple[int, int]:
        """(m+1, n): one past the last event's step, and the events at t = 0."""
        return int(self.steps[-1]) + 1, int(np.searchsorted(self.steps, 1))

    def by_step(self) -> Iterator[list[tuple[int, float, float, bool]]]:
        """For t = 0..m, step t's events as (row, mean bits, max |v|, flag)."""
        cuts = np.searchsorted(self.steps, np.arange(self.shape[0] + 1)).tolist()
        fields = (self.rows, self.event_bits, self.event_max, self.event_flags)
        events = list(zip(*(field.tolist() for field in fields)))
        return (events[lo:hi] for lo, hi in zip(cuts, cuts[1:]))

    def _filled(self, values: np.ndarray) -> np.ndarray:
        latest = np.zeros(self.shape, dtype=np.intp)
        latest[self.steps, self.rows] = np.arange(self.steps.size)
        # events run in step order, so a row's latest event has the largest index
        return values[np.maximum.accumulate(latest, axis=0, out=latest)]

    event_flags = property(lambda self: self.event_bits > self.word_budget)
    mean_bits = property(lambda self: self._filled(self.event_bits))
    max_abs = property(lambda self: self._filled(self.event_max))
    overflow_flags = property(lambda self: self._filled(self.event_flags))

    def flagged_cells(self) -> list[tuple[int, int]]:
        """The (t, i) of every cell over the word budget, in (t, i) order."""
        flagged: set[int] = set()
        cells = []
        for t, events in enumerate(self.by_step()):
            for i, _, _, flag in events:
                (flagged.add if flag else flagged.discard)(i)
            cells += ((t, i) for i in sorted(flagged))
        return cells


def simulate(
    algorithm: LinearAlgorithm,
    epsilon: float,
    sigma: float = 1.0,
    samples: int = 1000,
    seed: int = 0,
    word_budget: float = 32.0,
) -> QuantizedRunStats:
    """Quantized replay over Gaussian inputs with per-sample derived seeds.

    Inputs are N(0, sigma^2 Id): sample k of a non-negative integer seed is
    ``default_rng(SeedSequence(seed).spawn(samples)[k]).normal(0, sigma, n)``,
    so inputs and ``max_abs`` do not depend on chunking.  Means use pairwise
    summation per chunk, so across chunkings they agree up to rounding.
    """
    if epsilon <= 0:
        raise ValueError(f"quantization step must be positive, got {epsilon}")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    seed = _check_draws(seed, samples)
    n, m = algorithm.n, algorithm.m
    chunk = _chunk_size(n, samples)
    # the inputs, then one row per gate and one more per rotation (j = -1
    # marks a constant): counted without ``rotation``'s integer comparison,
    # which pages in about 128 kB of numpy code that nothing else here runs
    events = n + m + int(np.count_nonzero(algorithm.arrays.j + 1))
    steps, rows = np.empty(events, dtype=np.int64), np.empty(events, dtype=np.int64)
    bits_sum, max_abs = np.zeros(events), np.zeros(events)
    cur_bits, cur_max = np.empty(events), np.empty(events)
    for lo in range(0, samples, chunk):
        # the drawn chunk is the only n x chunk array: rounded and scored in
        # place, row by row, as each step rounds and scores its rows
        X = _draw_inputs(seed, lo, min(lo + chunk, samples), sigma, n)
        # one scratch serves the scoring's row and, between steps, the
        # rotations' two rows of at most ``ROTATE_COLUMNS`` columns
        columns = X.shape[1]
        width = min(columns, ROTATE_COLUMNS)
        scratch = np.empty(max(columns, 2 * width))
        k = 0
        for t, touched in replay(algorithm, X, scratch=scratch[: 2 * width].reshape(2, width)):
            touched = touched or range(n)  # t = 0 rewrites no row: the inputs
            hi = k + len(touched)
            _quantize_rows(X, touched, epsilon)
            _score_rows(X, touched, epsilon, cur_bits[k:hi], cur_max[k:hi], scratch[:columns])
            steps[k:hi], rows[k:hi] = t, touched
            k = hi
        bits_sum += cur_bits
        np.maximum(max_abs, cur_max, out=max_abs)

    bits_sum /= samples
    return QuantizedRunStats(epsilon, sigma, samples, word_budget, steps, rows, bits_sum, max_abs)


@dataclass(eq=False)
class UnderflowReport:
    epsilon: float
    tau: float
    widths: list[float]
    volume_log: float
    system: DirectionSystem
    basis: ExtendedBasis
    volume: VolumeBound


def underflow_widths(
    algorithm: LinearAlgorithm, epsilon: float, tau: float | None = None
) -> UnderflowReport:
    """Per-direction uncertainty widths from the underflow system.

    Extracted directions carry width epsilon * magnitude; the standard basis
    completions carry the plain stored-word width epsilon.
    """
    if epsilon <= 0:
        raise ValueError(f"quantization step must be positive, got {epsilon}")
    from .directions import extend_basis, extract_directions, speedup_factor, uncertainty_volume_log

    _, under = extract_directions(algorithm, tau=tau)
    basis = extend_basis(under, algorithm.n)
    widths = [epsilon * g for g in under.magnitudes]
    widths += [epsilon] * (algorithm.n - under.size)
    volume = uncertainty_volume_log(basis, b=speedup_factor(algorithm))
    return UnderflowReport(
        epsilon=epsilon,
        tau=under.threshold,
        widths=widths,
        volume_log=volume.sum_log2_gamma,
        system=under,
        basis=basis,
        volume=volume,
    )


# ``underflow_widths`` imports the extraction from ``directions`` when it runs,
# so that ``simulate`` compiles neither ``directions`` nor ``builders``; these
# names, which the benchmark traces here, load it on first access (PEP 562).
_DIRECTIONS_NAMES = {"extend_basis", "extract_directions"}


def __getattr__(name: str):
    if name not in _DIRECTIONS_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import directions

    return getattr(directions, name)


@dataclass
class UncertaintyCheck:
    step: int
    coord: int
    coefficient: float
    row_norm: float
    predicted_width: float
    measured_spread: float | None
    ratio: float | None
    bins_used: int
    status: str  # "ok" | "mismatch" | "inconclusive"


# The fewest samples a bin of ``empirical_uncertainty_check`` needs to count.
MIN_BIN = 30


def empirical_uncertainty_check(
    algorithm: LinearAlgorithm,
    epsilon: float,
    direction: np.ndarray,
    samples: int = 20_000,
    seed: int = 0,
    sigma: float = 1.0,
    step: int | None = None,
    coord: int | None = None,
) -> UncertaintyCheck:
    """Monte-Carlo check of the reconstruction width of g = direction . x.

    Writing the trajectory coordinate as word * epsilon, the component of g
    recoverable from that word is coefficient * coordinate value, where the
    coefficient is the matching entry of M(t)^{-T} applied to the direction;
    the rest of g is a function of the orthogonal complement.  Samples are
    binned by the quantized word and the spread of the recoverable component
    is measured within each bin, so complement variation cancels exactly.
    One ``VectorWalk`` gives the rows of M(t) and M(t)^{-T} and, when
    ``step`` or ``coord`` is None, the cell.  Expected agreement with
    epsilon * |coefficient| is within a factor of two; bins holding fewer
    than ``MIN_BIN`` samples are ignored, and if none qualify the check is
    inconclusive rather than failed.
    """
    n = algorithm.n
    seed = _check_draws(seed, samples)
    z = np.asarray(direction, dtype=float)
    if z.shape != (n,):
        raise ValueError(f"direction must have length {n}")
    if abs(np.linalg.norm(z) - 1.0) > 1e-9:
        raise ValueError("direction must be unit norm")

    # Imported here: ``simulate`` never layers, so its process never
    # compiles the layering.
    from .layering import VectorWalk

    walk = VectorWalk(algorithm)
    if step is None or coord is None:
        step, coord = _most_informative_cell(walk, z)
    if not 0 <= step <= algorithm.m:
        raise ValueError(f"step index {step} out of range [0, {algorithm.m}]")

    row_m = walk.row(step, coord)
    row_q = walk.row(step, coord, inverse_transpose=True)
    coefficient = float(row_q @ z)
    row_norm = float(np.linalg.norm(row_q))
    predicted = epsilon * abs(coefficient)

    chunk = _chunk_size(n, samples)
    words = np.empty(samples)
    exact = np.empty(samples)
    for lo in range(0, samples, chunk):
        hi = min(lo + chunk, samples)
        X0 = _draw_inputs(seed, lo, hi, sigma, n)
        Xq = X0.copy()  # rounded in place, as ``simulate`` rounds
        _quantize_rows(Xq, range(n), epsilon)
        for _, rows in replay(algorithm, Xq, stop=step):
            _quantize_rows(Xq, rows, epsilon)
        words[lo:hi] = Xq[coord]
        exact[lo:hi] = row_m @ X0

    keys = np.rint(words / epsilon).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    recoverable = coefficient * exact[order]
    _, starts, counts = np.unique(keys[order], return_index=True, return_counts=True)
    bins = zip(starts.tolist(), counts.tolist())
    spreads = [float(np.ptp(recoverable[lo : lo + c])) for lo, c in bins if c >= MIN_BIN]
    if spreads:
        measured = float(np.median(spreads))
        ratio = measured / predicted if predicted > 0 else math.inf
        status = "ok" if 0.5 <= ratio <= 2.0 else "mismatch"
    else:
        measured = ratio = None
        status = "inconclusive"
    return UncertaintyCheck(
        step, coord, coefficient, row_norm, predicted, measured, ratio, len(spreads), status
    )


def _most_informative_cell(walk: VectorWalk, z: np.ndarray) -> tuple[int, int]:
    """The (step, coordinate) whose word carries the largest component of z.

    One push of z through M^{-T} along the walk gives (M(t)^{-T} z)_i at
    every touched (t, i); the largest magnitude wins, the smallest (t, i)
    among equals.
    """
    weights = np.abs(walk.push(z.copy(), inverse_transpose=True))
    if not weights.size or weights.max() == 0.0:
        return 1, 0
    (top,) = np.nonzero(weights == weights.max())
    k = top[np.lexsort((walk.rows[top], walk.steps[top]))[0]]
    return int(walk.steps[k]), int(walk.rows[k])
