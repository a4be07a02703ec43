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
from .gates import Gate, LinearAlgorithm, apply_gate_rows, matrices_at, replay, touched

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


def _bits(values: np.ndarray, epsilon: float) -> np.ndarray:
    return np.log2(1.0 + np.abs(values) / epsilon) + 1.0


def _quantized_step(X: np.ndarray, gate: Gate, epsilon: float) -> tuple[int, ...]:
    """Apply one gate to the rows of X, round the rows it wrote; returns them."""
    apply_gate_rows(X, gate)
    rows = touched(gate)
    for r in rows:
        row = X[r]  # a view: ``quantize``'s operations in place, without temporaries
        np.multiply(np.rint(np.divide(row, epsilon, out=row), out=row), epsilon, out=row)
    return rows


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

    for lo in range(0, samples, chunk):
        X = quantize(_draw_inputs(seed, lo, min(lo + chunk, samples), sigma, n), epsilon)
        cur_bits = _bits(X, epsilon).sum(axis=1)
        cur_max = np.abs(X).max(axis=1)
        chunk_bits = np.empty((m + 1, n))
        chunk_max = np.empty((m + 1, n))
        chunk_bits[0] = cur_bits
        chunk_max[0] = cur_max
        for t, gate in enumerate(algorithm.gates, start=1):
            for r in _quantized_step(X, gate, epsilon):
                cur_bits[r] = _bits(X[r], epsilon).sum()
                cur_max[r] = np.abs(X[r]).max()
            chunk_bits[t] = cur_bits
            chunk_max[t] = cur_max
        bits_sum += chunk_bits
        np.maximum(max_abs, chunk_max, out=max_abs)

    mean_bits = bits_sum / samples
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
    g = np.empty(samples)
    for lo in range(0, samples, chunk):
        hi = min(lo + chunk, samples)
        X0 = _draw_inputs(seed, lo, hi, sigma, n)
        g[lo:hi] = z @ X0
        Xq = quantize(X0, epsilon)
        for gate in algorithm.gates[:step]:
            _quantized_step(Xq, gate, epsilon)
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
    """The (step, coordinate) whose word carries the largest component of z."""
    best = (0.0, 1, 0)
    for t, rows, _, Minv_T in replay(algorithm):
        for i in sorted(rows):
            weight = abs(float(Minv_T[i] @ z))
            if weight > best[0]:
                best = (weight, t, i)
    return best[1], best[2]
