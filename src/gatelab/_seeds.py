"""Generators of spawned ``SeedSequence`` children, seeded in bulk.

``spawned_generators(seed, lo, hi)`` yields, for k in [lo, hi), a generator
that draws exactly what ``default_rng(SeedSequence(seed).spawn(hi)[k])``
draws.  The children's PCG64 seeding words are computed for the whole range
at once with SeedSequence's own hash (``numpy.random.bit_generator``), rather
than by building one SeedSequence per child; numpy still seeds PCG64 from
those words.  Spawn indices must be below 2**32, where an index is one
entropy word.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _xorshift(words: np.ndarray) -> np.ndarray:
    return words ^ (words >> np.uint32(16))


def child_state_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """``SeedSequence(seed).spawn(hi)[k].generate_state(4, uint64)`` for k in [lo, hi).

    A child's entropy is the parent's, zero-padded to the pool size, followed
    by its spawn index, so its pool is the parent's pool with that index mixed
    into every word.  The hash constant depends only on how many words were
    hashed before, so it is advanced past the parent's rounds.  Products of
    Python ints are masked before they become uint32 scalars; array
    arithmetic wraps modulo 2**32 without a warning.
    """
    parent = np.random.SeedSequence(seed)
    entropy_words = max(1, -(-seed.bit_length() // 32))
    hashed = _POOL_SIZE * (_POOL_SIZE + max(0, entropy_words - _POOL_SIZE))
    hash_const = _INIT_A * pow(_MULT_A, hashed, _MASK32 + 1) & _MASK32
    index = np.arange(lo, hi, dtype=np.uint32)
    pool = []
    for word in parent.pool.tolist():
        next_const = hash_const * _MULT_A & _MASK32
        mixed = _xorshift((index ^ np.uint32(hash_const)) * np.uint32(next_const))
        hash_const = next_const
        scaled = np.uint32(word * _MIX_MULT_L & _MASK32)
        pool.append(_xorshift(scaled - np.uint32(_MIX_MULT_R) * mixed))

    hash_const = _INIT_B
    state = np.empty((hi - lo, 2 * _POOL_SIZE), dtype=np.uint32)
    for col in range(2 * _POOL_SIZE):
        next_const = hash_const * _MULT_B & _MASK32
        source = pool[col % _POOL_SIZE] ^ np.uint32(hash_const)
        state[:, col] = _xorshift(source * np.uint32(next_const))
        hash_const = next_const
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _ChildWords(ISeedSequence):
    """A seed sequence that hands PCG64 one child's precomputed state words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("only PCG64's four uint64 state words are precomputed")
        return self.words


def spawned_generators(seed: int, lo: int, hi: int) -> Iterator[Generator]:
    """The generators of children lo..hi-1 of ``SeedSequence(seed)``."""
    for words in child_state_words(seed, lo, hi):
        yield Generator(PCG64(_ChildWords(words)))
