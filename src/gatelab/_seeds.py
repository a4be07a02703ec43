"""Normal draws of spawned ``SeedSequence`` children, seeded in bulk.

``spawned_normals(X, seed, lo, sigma)`` fills column c of an (n, count)
array X with exactly what ``default_rng(SeedSequence(seed).spawn(k + 1)[k])
.normal(0, sigma, n)`` draws, k = lo + c.  The children's PCG64 seeding
words are computed for a block of children at once with SeedSequence's own
hash (its constants, the parent's pool and ``generate_state``'s loop come
from ``_rng``), rather than by building one SeedSequence per child; numpy
still seeds PCG64 from those words and still draws each child's normals.
Spawn indices must be below 2**32, where an index is one entropy word.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from ._rng import MASK32, MIX_MULT_L, MIX_MULT_R, MULT_A, seed_pool, state_halves, xorshift


def child_state_words(seed: int, lo: int, hi: int) -> np.ndarray:
    """``SeedSequence(seed).spawn(hi)[k].generate_state(4, uint64)`` for k in [lo, hi).

    A child's entropy is the parent's, zero-padded to the pool size, followed
    by its spawn index, so its pool is the parent's pool with that index mixed
    into every word, with the hash constant where the parent's hash left it.
    Products of Python ints are masked before they become uint32 scalars;
    array arithmetic wraps modulo 2**32 without a warning.
    """
    parent_pool, hash_const = seed_pool(seed)
    index = np.arange(lo, hi, dtype=np.uint32)
    pool = []
    for word in parent_pool:
        next_const = hash_const * MULT_A & MASK32
        mixed = xorshift((index ^ np.uint32(hash_const)) * np.uint32(next_const))
        hash_const = next_const
        scaled = np.uint32(word * MIX_MULT_L & MASK32)
        pool.append(xorshift(scaled - np.uint32(MIX_MULT_R) * mixed))

    state = np.stack(state_halves(pool), axis=1)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _ChildWords(ISeedSequence):
    """A seed sequence that hands PCG64 one child's precomputed state words.

    PCG64 reads them once, in its constructor, so one holder serves every
    child of a block: assign ``words`` before each constructor call.
    """

    __slots__ = ("words",)

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 passes the np.uint64 type itself; the identity test spares
        # each child a dtype conversion
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError("only PCG64's four uint64 state words are precomputed")
        return self.words


# Children whose words are derived together: each costs about 100 bytes of
# temporaries, so a slice of this many stays far below the sample arrays.
_WORDS_SLICE = 1024

# Floats in the row buffer the draws go through: at most 256 kB, whatever
# the size of the sample array.
_BUFFER_FLOATS = 1 << 15


def spawned_normals(X: np.ndarray, seed: int, lo: int, sigma: float) -> None:
    """Fill column c of the (n, count) array X with child lo + c's
    ``normal(0, sigma, n)``.

    Each child draws its standard normals into one row of a C-contiguous
    (rows, n) buffer; a full buffer is then scaled and shifted as
    ``normal``'s loc + scale * z, with loc = 0.0 (so sigma = 0 gives +0.0,
    not -0.0), and copied into X's columns with one transposed copy.
    """
    n, count = X.shape
    rows = max(1, min(_WORDS_SLICE, _BUFFER_FLOATS // n, count))
    buffer = np.empty((rows, n))
    holder = _ChildWords()
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        block = buffer[: stop - start]
        for row, holder.words in zip(block, child_state_words(seed, lo + start, lo + stop)):
            Generator(PCG64(holder)).standard_normal(out=row)
        np.multiply(block, sigma, out=block)
        np.add(block, 0.0, out=block)
        X[:, start:stop] = block.T
