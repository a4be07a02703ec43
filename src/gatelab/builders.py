"""Reference gate programs: fast transforms and engineered fixtures.

The Walsh-Hadamard builder emits the standard in-place butterfly network.
Each butterfly on coordinates (i, j) is a quarter-turn rotation followed by a
reflection of j, realizing (x_i, x_j) -> ((x_i+x_j)/sqrt2, (x_i-x_j)/sqrt2);
the rotation-then-reflection order places the plus output at index i.

The DFT builder works on the interleaved real embedding of C^(n/2), laying a
complex value z_k out as (Re z_k, Im z_k) at coordinates (2k, 2k+1).  A
rotation by phi on such a pair multiplies z_k by exp(-i*phi), so twiddle
factors are single rotation gates.  Bit-reversal is paid for explicitly: one
swap is a half-turn rotation plus a reflection, two gates per real pair.

The builders make gate objects of ``model`` in plain Python, so building and
writing a gate file never loads numpy; ``build_random`` draws from ``_rng``,
numpy's generator reproduced without numpy.  Only the dense closed forms
(``wht_matrix`` and its blocks ``wht_entries``, ``dft_real_matrix``) import
numpy, when they are called.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

from .model import Constant, Gate, LinearAlgorithm, Rotation

if TYPE_CHECKING:
    import numpy as np

QUARTER_TURN = math.pi / 4.0


def _require_power_of_two(n: int, minimum: int) -> None:
    if n < minimum or n & (n - 1):
        raise ValueError(f"dimension must be a power of two >= {minimum}, got {n}")


def wht_matrix(n: int) -> np.ndarray:
    """Dense normalized Walsh-Hadamard matrix, sign (-1)^<bits(k), bits(l)>."""
    import numpy as np

    return wht_entries(n, np.arange(n), np.arange(n))


def wht_entries(
    n: int, rows: np.ndarray, cols: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The entries (rows x cols) of ``wht_matrix(n)``, built in float into
    ``out`` (fresh if None), with no integer temporaries of that size.

    <bits(k), bits(l)> is the product of the 0/1 bit matrices of the rows and
    the columns, exact in float, and its parity p gives the sign 1 - 2p.
    """
    import numpy as np

    _require_power_of_two(n, 2)
    shifts = np.arange(n.bit_length() - 1)
    row_bits, col_bits = (
        ((np.asarray(x)[:, None] >> shifts) & 1).astype(float) for x in (rows, cols)
    )
    out = np.matmul(row_bits, col_bits.T, out=out)
    np.remainder(out, 2.0, out=out)
    out *= -2.0
    out += 1.0
    out /= math.sqrt(n)
    return out


def dft_real_matrix(n: int) -> np.ndarray:
    """Dense real embedding of the normalized (n/2)-point DFT.

    Complex entry N^{-1/2} exp(-2i*pi*k*l/N) becomes the 2x2 block
    [[a, -b], [b, a]] for a = Re, b = Im, under the interleaved layout.
    """
    import numpy as np

    _require_power_of_two(n, 4)
    N = n // 2
    k = np.arange(N)
    W = np.exp(-2j * np.pi * np.outer(k, k) / N) / math.sqrt(N)
    M = np.empty((n, n))
    M[0::2, 0::2] = W.real
    M[0::2, 1::2] = -W.imag
    M[1::2, 0::2] = W.imag
    M[1::2, 1::2] = W.real
    return M


def _butterfly(i: int, j: int) -> list[Gate]:
    return [Rotation(i, j, QUARTER_TURN), Constant(j, -1.0)]


def _swap(i: int, j: int) -> list[Gate]:
    return [Rotation(i, j, math.pi / 2.0), Constant(j, -1.0)]


def build_wht(n: int) -> LinearAlgorithm:
    """Fast Walsh-Hadamard network: n*log2(n) gates, half rotations, half reflections."""
    _require_power_of_two(n, 2)
    gates: list[Gate] = []
    h = 1
    while h < n:
        for base in range(0, n, 2 * h):
            for k in range(base, base + h):
                gates.extend(_butterfly(k, k + h))
        h *= 2
    return LinearAlgorithm(n=n, gates=tuple(gates), label=f"wht{n}")


def _bit_reverse(x: int, bits: int) -> int:
    out = 0
    for _ in range(bits):
        out = (out << 1) | (x & 1)
        x >>= 1
    return out


def build_dft_real(n: int) -> LinearAlgorithm:
    """Radix-2 decimation-in-time network for the real-embedded (n/2)-point DFT.

    Stage order: explicit bit-reversal swaps first, then butterfly stages of
    doubling span.  The twiddle on the bottom input of a butterfly at offset k
    within a stage of span s multiplies by exp(-2i*pi*k/s), i.e. a rotation by
    +2*pi*k/s on its (Re, Im) pair; zero-angle twiddles are omitted.
    """
    _require_power_of_two(n, 4)
    N = n // 2
    bits = N.bit_length() - 1
    gates: list[Gate] = []
    for p in range(N):
        q = _bit_reverse(p, bits)
        if q > p:
            gates.extend(_swap(2 * p, 2 * q))
            gates.extend(_swap(2 * p + 1, 2 * q + 1))
    s = 2
    while s <= N:
        half = s // 2
        for base in range(0, N, s):
            for k in range(half):
                p, q = base + k, base + k + half
                if k:
                    gates.append(Rotation(2 * q, 2 * q + 1, 2.0 * math.pi * k / s))
                gates.extend(_butterfly(2 * p, 2 * q))
                gates.extend(_butterfly(2 * p + 1, 2 * q + 1))
        s *= 2
    return LinearAlgorithm(n=n, gates=tuple(gates), label=f"dft_real{n}")


def build_random(n: int, m: int, seed: int, angle_only: bool = False) -> LinearAlgorithm:
    """Deterministic random algorithm for property sweeps.

    Rotations get uniform pairs and angles in [0, 2*pi).  Unless angle_only,
    each gate is a constant with probability 1/4, with log2|c| uniform on
    [-3, 3] and a random sign; the bounded magnitude keeps inverse-consistency
    residuals benign.

    The draws are ``numpy.random.default_rng(seed)``'s, reproduced without
    numpy by ``_rng.DefaultRng``, so the gates do not change with the
    installed numpy (NEP 19 lets ``Generator`` streams change between
    releases).
    """
    if n < 2:
        raise ValueError(f"dimension must be at least 2, got n={n}")
    if m < 1:
        raise ValueError(f"need at least one gate, got m={m}")
    if seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    from ._rng import DefaultRng  # compiled only for the builds that draw

    rng = DefaultRng(seed)
    gates: list[Gate] = []
    for _ in range(m):
        if not angle_only and rng.random() < 0.25:
            i = rng.integers(n)
            c = 2.0 ** rng.uniform(-3.0, 3.0)
            if rng.random() < 0.5:
                c = -c
            gates.append(Constant(i, c))
        else:
            i = rng.integers(n)
            j = rng.integers(n - 1)
            if j >= i:
                j += 1
            gates.append(Rotation(i, j, rng.uniform(0.0, 2.0 * math.pi)))
    return LinearAlgorithm(n=n, gates=tuple(gates), label=f"random{n}x{m}s{seed}")


def build_scaled_bottleneck_fixture(n: int, c: float, k: int) -> LinearAlgorithm:
    """Scale k rows up by c, back down, then run the Walsh-Hadamard network.

    The final matrix is the plain transform, but intermediate steps carry rows
    of norm c, planting a condition-number bottleneck of magnitude exactly c.
    """
    return _planted_fixture(n, c, k, inverse=False)


def build_inverse_scaled_fixture(n: int, c: float, k: int) -> LinearAlgorithm:
    """Mirror fixture scaling rows down by c first: the bottleneck sits in M^{-T}."""
    return _planted_fixture(n, c, k, inverse=True)


def _planted_fixture(n: int, c: float, k: int, inverse: bool) -> LinearAlgorithm:
    """Scale rows 0..k-1 up by c and back down (down first if ``inverse``), then run the WHT."""
    _require_power_of_two(n, 2)
    if c <= 1.0:
        raise ValueError(f"c must exceed 1, got {c}")
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, {n}], got {k}")
    first, second = (1.0 / c, c) if inverse else (c, 1.0 / c)
    gates = [Constant(i, first) for i in range(k)]
    gates += [Constant(i, second) for i in range(k)]
    gates += list(build_wht(n).gates)
    label = "invscaled" if inverse else "scaled"
    return LinearAlgorithm(n=n, gates=tuple(gates), label=f"{label}{n}c{c:g}k{k}")


class _FixtureFields(NamedTuple):
    kind: str
    n: int
    params: dict


class FixtureSpec(_FixtureFields):
    """CLI-facing description of a builder invocation; each gets its own
    ``params`` dict when none is given."""

    __slots__ = ()

    def __new__(cls, kind: str, n: int, params: dict | None = None) -> FixtureSpec:
        return super().__new__(cls, kind, n, {} if params is None else params)

    KINDS = ("wht", "dft_real", "random", "scaled", "inverse_scaled")


def build_fixture(spec: FixtureSpec) -> LinearAlgorithm:
    if spec.kind == "wht":
        return build_wht(spec.n)
    if spec.kind == "dft_real":
        return build_dft_real(spec.n)
    if spec.kind == "random":
        return build_random(
            spec.n,
            int(spec.params["m"]),
            int(spec.params.get("seed", 0)),
            bool(spec.params.get("angle_only", False)),
        )
    if spec.kind == "scaled":
        return build_scaled_bottleneck_fixture(spec.n, float(spec.params["c"]), int(spec.params["k"]))
    if spec.kind == "inverse_scaled":
        return build_inverse_scaled_fixture(spec.n, float(spec.params["c"]), int(spec.params["k"]))
    raise ValueError(f"unknown fixture kind {spec.kind!r}, expected one of {FixtureSpec.KINDS}")
