"""Fixed-word-size execution: quantized replay, bit usage, uncertainty widths.

The simulator replays an algorithm on Gaussian inputs, rounding every written
coordinate to the nearest multiple of epsilon (ties to even) after each gate,
and scores each (step, coordinate) cell by the expected word length

    bits(v) = log2(1 + |v| / epsilon) + 1,

a smooth surrogate for the length of the base-2 integer representation of
v / epsilon plus a sign bit.  Cells whose mean exceeds the word budget are
flagged as overflow.  Rotations preserve the standard Gaussian law, so an
all-rotation network keeps the bit usage flat across all cells; planted row
scalings shift it by exactly their log2 magnitude.

The underflow side is delegated to direction extraction: each extracted
direction can only be pinned down to a width of epsilon times its magnitude,
while completion directions cost the plain epsilon of a stored word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .directions import (
    DirectionSystem,
    ExtendedBasis,
    VolumeBound,
    extend_basis,
    extract_directions,
    speedup_factor,
    uncertainty_volume_log,
)
from .gates import Gate, LinearAlgorithm, VectorWalk, apply_gate_rows, matrices_at, touched

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
    """Inputs of samples lo..hi-1 as the columns of an (n, hi - lo) array."""
    # Imported here: loading numpy.random would add about 15 ms to every
    # CLI start, and only the draws need it.
    from ._seeds import spawned_generators

    X = np.empty((n, hi - lo))
    for col, rng in enumerate(spawned_generators(seed, lo, hi)):
        X[:, col] = rng.normal(0.0, sigma, n)
    return X


def quantize(values: np.ndarray, epsilon: float) -> np.ndarray:
    """Round to the nearest multiple of epsilon, ties to even."""
    return np.rint(values / epsilon) * epsilon


def _quantize_rows(X: np.ndarray, rows: Iterable[int], epsilon: float) -> None:
    """``quantize``'s operations on each of the rows of X, in place."""
    for r in rows:
        row = X[r]  # a view, so the row needs no temporaries
        np.multiply(np.rint(np.divide(row, epsilon, out=row), out=row), epsilon, out=row)


def _quantized_step(
    X: np.ndarray, gate: Gate, epsilon: float, scratch: np.ndarray
) -> tuple[int, ...]:
    """Apply one gate to the rows of X, round the rows it wrote; returns them.

    ``scratch`` holds two rows of X's width for the rotation's temporaries.
    """
    apply_gate_rows(X, gate, scratch=scratch)
    rows = touched(gate)
    _quantize_rows(X, rows, epsilon)
    return rows


def _score_rows(
    X: np.ndarray,
    rows: Iterable[int],
    epsilon: float,
    bits: np.ndarray,
    max_abs: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Each row's largest magnitude and its summed bits(v) = log2(1 + |v| /
    epsilon) + 1, one row at a time through a row-sized scratch array."""
    for r in rows:
        np.abs(X[r], out=scratch)
        max_abs[r] = scratch.max()
        np.divide(scratch, epsilon, out=scratch)
        np.log2(np.add(scratch, 1.0, out=scratch), out=scratch)
        bits[r] = np.add(scratch, 1.0, out=scratch).sum()


@dataclass
class QuantizedRunStats:
    epsilon: float
    sigma: float
    samples: int
    word_budget: float
    mean_bits: np.ndarray  # (m+1, n)
    max_abs: np.ndarray  # (m+1, n)
    overflow_flags: np.ndarray  # bool (m+1, n)

    def flagged_cells(self) -> list[tuple[int, int]]:
        return [(int(t), int(i)) for t, i in np.argwhere(self.overflow_flags)]


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
    bits_sum = np.zeros((m + 1, n))
    max_abs = np.zeros((m + 1, n))

    cur_bits = np.empty(n)
    cur_max = np.empty(n)
    for lo in range(0, samples, chunk):
        # the drawn chunk is the only n x chunk array: rounded and scored in
        # place, row by row, as each step rounds and scores its rows
        X = _draw_inputs(seed, lo, min(lo + chunk, samples), sigma, n)
        scratch = np.empty((2, X.shape[1]))
        _quantize_rows(X, range(n), epsilon)
        _score_rows(X, range(n), epsilon, cur_bits, cur_max, scratch[0])
        for t in range(m + 1):
            if t:
                rows = _quantized_step(X, algorithm.gates[t - 1], epsilon, scratch)
                _score_rows(X, rows, epsilon, cur_bits, cur_max, scratch[0])
            bits_sum[t] += cur_bits
            np.maximum(max_abs[t], cur_max, out=max_abs[t])

    mean_bits = bits_sum
    mean_bits /= samples
    return QuantizedRunStats(
        epsilon=epsilon,
        sigma=sigma,
        samples=samples,
        word_budget=word_budget,
        mean_bits=mean_bits,
        max_abs=max_abs,
        overflow_flags=mean_bits > word_budget,
    )


@dataclass
class UnderflowReport:
    epsilon: float
    tau: float
    directions: list[np.ndarray]
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
    _, under = extract_directions(algorithm, tau=tau)
    basis = extend_basis(under, algorithm.n)
    widths = [epsilon * g for g in under.magnitudes]
    widths += [epsilon] * (algorithm.n - under.size)
    volume = uncertainty_volume_log(basis, b=speedup_factor(algorithm))
    return UnderflowReport(
        epsilon=epsilon,
        tau=under.threshold,
        directions=[u.copy() for u in basis.u_vectors],
        widths=widths,
        volume_log=volume.sum_log2_gamma,
        system=under,
        basis=basis,
        volume=volume,
    )


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


def empirical_uncertainty_check(
    algorithm: LinearAlgorithm,
    epsilon: float,
    direction: np.ndarray,
    samples: int = 20_000,
    seed: int = 0,
    sigma: float = 1.0,
    step: int | None = None,
    coord: int | None = None,
    min_bin: int = 30,
) -> UncertaintyCheck:
    """Monte-Carlo check of the reconstruction width of g = direction . x.

    Writing the trajectory coordinate as word * epsilon, the component of g
    recoverable from that word is coefficient * coordinate value, where the
    coefficient is the matching entry of M(t)^{-T} applied to the direction;
    the rest of g is a function of the orthogonal complement.  Samples are
    binned by the quantized word and the spread of the recoverable component
    is measured within each bin, so complement variation cancels exactly.
    Expected agreement with epsilon * |coefficient| is within a factor of two;
    bins holding fewer than ``min_bin`` samples are ignored, and if none
    qualify the check is inconclusive rather than failed.
    """
    n = algorithm.n
    seed = _check_draws(seed, samples)
    z = np.asarray(direction, dtype=float)
    if z.shape != (n,):
        raise ValueError(f"direction must have length {n}")
    if abs(np.linalg.norm(z) - 1.0) > 1e-9:
        raise ValueError("direction must be unit norm")

    if step is None or coord is None:
        step, coord = _most_informative_cell(algorithm, z)

    M, Minv_T = matrices_at(algorithm, step)
    coefficient = float(Minv_T[coord] @ z)
    row_norm = float(np.linalg.norm(Minv_T[coord]))
    predicted = epsilon * abs(coefficient)

    chunk = _chunk_size(n, samples)
    words = np.empty(samples)
    exact = np.empty(samples)
    for lo in range(0, samples, chunk):
        hi = min(lo + chunk, samples)
        X0 = _draw_inputs(seed, lo, hi, sigma, n)
        Xq = quantize(X0, epsilon)
        scratch = np.empty((2, hi - lo))
        for gate in algorithm.gates[:step]:
            _quantized_step(Xq, gate, epsilon, scratch)
        words[lo:hi] = Xq[coord]
        exact[lo:hi] = M[coord] @ X0

    keys = np.rint(words / epsilon).astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    recoverable = coefficient * exact[order]
    spreads = []
    start = 0
    for end in range(1, samples + 1):
        if end == samples or keys_sorted[end] != keys_sorted[start]:
            if end - start >= min_bin:
                block = recoverable[start:end]
                spreads.append(float(block.max() - block.min()))
            start = end

    if not spreads:
        return UncertaintyCheck(
            step=step,
            coord=coord,
            coefficient=coefficient,
            row_norm=row_norm,
            predicted_width=predicted,
            measured_spread=None,
            ratio=None,
            bins_used=0,
            status="inconclusive",
        )
    measured = float(np.median(spreads))
    ratio = measured / predicted if predicted > 0 else math.inf
    status = "ok" if 0.5 <= ratio <= 2.0 else "mismatch"
    return UncertaintyCheck(
        step=step,
        coord=coord,
        coefficient=coefficient,
        row_norm=row_norm,
        predicted_width=predicted,
        measured_spread=measured,
        ratio=ratio,
        bins_used=len(spreads),
        status=status,
    )


def _most_informative_cell(algorithm: LinearAlgorithm, z: np.ndarray) -> tuple[int, int]:
    """The (step, coordinate) whose word carries the largest component of z.

    One push of z through M^{-T} gives (M(t)^{-T} z)_i at every touched
    (t, i); the largest magnitude wins, the smallest (t, i) among equals.
    """
    walk = VectorWalk(algorithm)
    weights = np.abs(walk.push(z.copy(), inverse_transpose=True))
    if not weights.size or weights.max() == 0.0:
        return 1, 0
    (top,) = np.nonzero(weights == weights.max())
    k = top[np.lexsort((walk.rows[top], walk.steps[top]))[0]]
    return int(walk.steps[k]), int(walk.rows[k])
