"""Many numpy PRNG substreams at once, as columns.

``Substreams(seed, stream, start, stop)`` holds one row per generator
``numpy.random.default_rng((seed, stream, i))``, i in [start, stop), and
draws from any subset of the rows at once, each row continuing its own
stream.  The arithmetic repeats numpy's algorithms word for word on
uint32/uint64 arrays, so every row yields the same numbers as its scalar
generator:

* ``SeedSequence`` (after O'Neill's ``seed_seq_fe``): the int tuple split
  into little-endian 32-bit words, ``mix_entropy`` into a pool of 4 words,
  then ``generate_state(4, uint64)``;
* PCG64 seeded from those words (state = w0·2^64 + w1, increment
  2(w2·2^64 + w3) + 1), stepped as s·M + inc mod 2^128 with the products
  built from 32-bit limbs, and the XSL-RR output;
* ``Generator.random()``: (x >> 11)·2^-53 from a fresh output;
* ``Generator.integers(n)``: Lemire's method on a uint32 that is the
  buffered high half of the last output when there is one, else the low
  half of a fresh output (whose high half is buffered); a product whose low
  word is below (2^32 - n) mod n is rejected and redrawn, and n = 1 draws
  nothing.

NEP 19 keeps the SeedSequence and PCG64 bit streams stable across numpy
releases; the two transforms are numpy's current ones, which the tests
compare against numpy's own generators.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Substreams"]

M32 = 0xFFFFFFFF
# SeedSequence hash constants
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
XSHIFT = 16
POOL_SIZE = 4
# PCG64's 128-bit multiplier: high word, low word and the low word's limbs
MUL_HI = np.uint64(0x2360ED051FC65DA4)
MUL_LO = np.uint64(0x4385DF649FCCF645)
MUL_LO_0, MUL_LO_1 = np.uint64(0x9FCCF645), np.uint64(0x4385DF64)


def _words(n: int) -> list[int]:
    """Little-endian 32-bit words of n >= 0, as SeedSequence splits an int."""
    return [(n >> shift) & M32 for shift in range(0, max(n.bit_length(), 1), 32)]


def _seed_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, uint64) per row, as 4 uint64 arrays.

    ``entropy`` holds the uint32 words in order, each a column of the rows
    or a one-element array shared by all of them.  The hash constants do
    not depend on the data, so every step is one array operation.
    """
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_A & M32
        value = value * np.uint32(hash_const)
        return value ^ (value >> XSHIFT)

    def mix(x, y):
        result = MIX_MULT_L * x - MIX_MULT_R * y
        return result ^ (result >> XSHIFT)

    zero = np.zeros(1, dtype=np.uint32)
    pool = [hashmix(entropy[k] if k < len(entropy) else zero) for k in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[POOL_SIZE:]:
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = INIT_B
    words = []
    for k in range(2 * 4):
        value = pool[k % POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * MULT_B & M32
        value *= np.uint32(hash_const)
        words.append(value ^ (value >> XSHIFT))
    # little-endian pairs of uint32 words make the uint64 words
    return [
        words[2 * k].astype(np.uint64) | words[2 * k + 1].astype(np.uint64) << np.uint64(32)
        for k in range(4)
    ]


def _step(hi, lo, inc_hi, inc_lo):
    """(hi, lo)·M + (inc_hi, inc_lo) mod 2^128, words wrapping as uint64.

    lo·M_lo is built from the 32-bit limbs of both factors; the other
    products only reach the high word.  In-place updates keep few
    temporaries alive.
    """
    lo_0, lo_1 = lo & np.uint64(M32), lo >> np.uint64(32)
    product = lo_0 * MUL_LO_1
    new_hi = product >> np.uint64(32)
    mid = product & np.uint64(M32)
    product = lo_1 * MUL_LO_0
    new_hi += product >> np.uint64(32)
    mid += product & np.uint64(M32)
    product = lo_0 * MUL_LO_0
    mid += product >> np.uint64(32)
    new_lo = product & np.uint64(M32)
    new_lo |= mid << np.uint64(32)
    new_hi += mid >> np.uint64(32)
    new_hi += lo_1 * MUL_LO_1
    new_hi += hi * MUL_LO
    new_hi += lo * MUL_HI
    new_lo += inc_lo
    new_hi += inc_hi
    new_hi += new_lo < inc_lo
    return new_hi, new_lo


class Substreams:
    """The generators ``default_rng((seed, stream, i))``, i in [start, stop).

    Row r is round ``start + r``.  Each draw method takes ``rows``, a sorted
    index array of distinct rows, and returns one value per listed row;
    rows not listed do not move.  ``state_hi``/``state_lo``,
    ``inc_hi``/``inc_lo``, ``has_uint32`` and ``uinteger`` are each row's
    PCG64 state in numpy's terms.
    """

    def __init__(self, seed: int, stream: int, start: int, stop: int) -> None:
        if not 0 <= start <= stop <= 2**64:
            raise ValueError(f"substream ids [{start}, {stop}) outside [0, 2^64]")
        self.size = size = stop - start
        prefix = [np.full(1, w, dtype=np.uint32) for w in _words(seed) + _words(stream)]
        ids = np.arange(start, stop, dtype=np.uint64)
        low, high = ids.astype(np.uint32), (ids >> np.uint64(32)).astype(np.uint32)
        # ids below 2^32 are one entropy word, the rest two
        split = min(max(2**32 - start, 0), size)
        if split == size:
            words = _seed_words(prefix + [low])
        else:
            one = _seed_words(prefix + [low[:split]])
            two = _seed_words(prefix + [low[split:], high[split:]])
            words = [np.concatenate(pair) for pair in zip(one, two)]
        seed_hi, seed_lo, inc_hi, inc_lo = words
        # pcg64_srandom_r: inc = 2·inc + 1, state = 0, step, add the seed, step
        self.inc_hi = (inc_hi << np.uint64(1)) | (inc_lo >> np.uint64(63))
        self.inc_lo = (inc_lo << np.uint64(1)) | np.uint64(1)
        lo = self.inc_lo + seed_lo
        hi = self.inc_hi + seed_hi + (lo < seed_lo)
        self.state_hi, self.state_lo = _step(hi, lo, self.inc_hi, self.inc_lo)
        self.has_uint32 = np.zeros(size, dtype=bool)
        self.uinteger = np.zeros(size, dtype=np.uint64)

    def random_raw(self, rows: np.ndarray) -> np.ndarray:
        """The next uint64 output of each listed row."""
        if len(rows) == self.size:  # all rows: plain slices instead of gathers
            rows = slice(None)
        hi, lo = self.state_hi[rows], self.state_lo[rows]
        hi, lo = _step(hi, lo, self.inc_hi[rows], self.inc_lo[rows])
        self.state_hi[rows], self.state_lo[rows] = hi, lo
        x, rot = hi ^ lo, hi >> np.uint64(58)
        return (x >> rot) | (x << ((np.uint64(64) - rot) & np.uint64(63)))

    def random(self, rows: np.ndarray) -> np.ndarray:
        """``Generator.random()`` of each listed row."""
        return (self.random_raw(rows) >> np.uint64(11)) * (1.0 / 9007199254740992.0)

    def _uint32(self, rows: np.ndarray) -> np.ndarray:
        """PCG64's next_uint32 of each listed row, as uint64."""
        buffered = self.has_uint32[rows]
        out = np.empty(len(rows), dtype=np.uint64)
        out[buffered] = self.uinteger[rows[buffered]]
        fresh = rows[~buffered]
        raw = self.random_raw(fresh)
        out[~buffered] = raw & np.uint64(M32)
        self.uinteger[fresh] = raw >> np.uint64(32)
        self.has_uint32[rows] = ~buffered
        return out

    def integers(self, n: int, rows: np.ndarray) -> np.ndarray:
        """``Generator.integers(n)`` of each listed row, for 1 <= n < 2^32."""
        if not 1 <= n <= M32:
            raise ValueError(f"integers(n) needs 1 <= n < 2^32, got {n}")
        if n == 1:
            return np.zeros(len(rows), dtype=np.int64)
        m = self._uint32(rows) * np.uint64(n)
        threshold = (2**32 - n) % n  # 0 for a power of two: nothing is rejected
        if threshold:
            again = np.flatnonzero(m & np.uint64(M32) < threshold)
            while again.size:
                m[again] = self._uint32(rows[again]) * np.uint64(n)
                again = again[m[again] & np.uint64(M32) < threshold]
        return (m >> np.uint64(32)).astype(np.int64)
