"""numpy's ``default_rng(seed)`` stream for an integer seed, without numpy.

``DefaultRng(seed)`` draws exactly what ``numpy.random.default_rng(seed)``
draws, call for call, for the three methods ``builders.build_random`` uses:
``random()``, ``integers(k)`` and ``uniform(a, b)``.  It reproduces numpy's
seeding (``SeedSequence``'s hash of the seed into four 64-bit words), its
bit generator (PCG64, the XSL-RR 128/64 variant of O'Neill's PCG family)
and its bounded integers (Lemire's multiply-and-reject method), so a gate
file built from it neither loads numpy nor depends on the installed numpy
version: NEP 19 gives ``Generator`` methods no guarantee that their streams
stay the same across releases.

``seed_pool`` is SeedSequence's entropy hash; ``_seeds`` derives spawned
children's words from its pool and these constants.
"""

from __future__ import annotations

MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

# SeedSequence's hash (numpy.random.bit_generator)
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_INT64_MAX = (1 << 63) - 1


def xorshift(word):
    """The hash's final mixing step; also applies to numpy uint32 arrays."""
    return word ^ word >> 16


def seed_pool(seed: int) -> tuple[list[int], int]:
    """``SeedSequence(seed).pool`` and the hash constant the next hashed word takes.

    The seed's entropy is its 32-bit words, least significant first (one
    word for 0).  The first POOL_SIZE words (zero-padded) are hashed into
    the pool, every pool word is mixed into every other, and any further
    words are mixed into each pool word in turn.
    """
    words = [seed & MASK32]
    while seed >> 32:
        seed >>= 32
        words.append(seed & MASK32)
    hash_const = INIT_A

    def hashmix(word: int) -> int:
        nonlocal hash_const
        word ^= hash_const
        hash_const = hash_const * MULT_A & MASK32
        return xorshift(word * hash_const & MASK32)

    def mix(x: int, y: int) -> int:
        return xorshift(MIX_MULT_L * x - MIX_MULT_R * y & MASK32)

    padded = words + [0] * (POOL_SIZE - len(words))
    pool = [hashmix(word) for word in padded[:POOL_SIZE]]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool, hash_const


def _state_words(pool: list[int]) -> list[int]:
    """``generate_state(4, uint64)`` of a SeedSequence with this pool."""
    hash_const = INIT_B
    halves = []
    for k in range(4 * 2):
        word = pool[k % POOL_SIZE] ^ hash_const
        hash_const = hash_const * MULT_B & MASK32
        halves.append(xorshift(word * hash_const & MASK32))
    return [lo | hi << 32 for lo, hi in zip(halves[0::2], halves[1::2])]


class DefaultRng:
    """The PCG64 generator ``numpy.random.default_rng(seed)`` returns.

    PCG64 keeps the high half of a 64-bit word that a 32-bit draw did not
    use, and hands it to the next 32-bit draw; 64-bit draws skip it.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int) -> None:
        w0, w1, w2, w3 = _state_words(seed_pool(seed)[0])
        self._inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        self._state = 0
        self._next64()
        self._state = (self._state + (w0 << 64 | w1)) & _MASK128
        self._next64()
        self._half: int | None = None

    def _next64(self) -> int:
        """Step the 128-bit LCG, then output the xor of its halves rotated
        right by its top 6 bits."""
        state = self._state = (self._state * _PCG_MULT + self._inc) & _MASK128
        word = (state >> 64 ^ state) & _MASK64
        rot = state >> 122
        return (word >> rot | word << (64 - rot)) & _MASK64

    def _next32(self) -> int:
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & MASK32

    def random(self) -> float:
        """A float in [0, 1): the top 53 bits of a 64-bit word."""
        return (self._next64() >> 11) * 2.0**-53

    def uniform(self, a: float, b: float) -> float:
        return a + (b - a) * self.random()

    def integers(self, k: int) -> int:
        """An integer in [0, k), from a 32-bit draw when k <= 2**32.

        Lemire's method: the high half of draw * k, redrawn while the low
        half falls below 2**bits mod k, the values that would bias it.
        """
        if k <= 0:
            raise ValueError("high <= 0")
        if k - 1 > _INT64_MAX:
            raise ValueError("high is out of bounds for int64")
        if k == 1:
            return 0
        draw, bits = (self._next32, 32) if k - 1 <= MASK32 else (self._next64, 64)
        mask = (1 << bits) - 1
        threshold = (1 << bits) % k
        product = draw() * k
        while product & mask < threshold:
            product = draw() * k
        return product >> bits
