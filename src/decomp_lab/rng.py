"""Deterministic 64-bit pseudo-random generator.

Every randomized operation in the package draws from :class:`SplitMix64`
with a caller-supplied seed, so reports and trajectories are byte
reproducible across platforms and Python versions.  The generator is the
splitmix64 recurrence (Steele/Lea/Flood finalizer over a Weyl sequence);
bounded draws use rejection sampling so they are exactly uniform.

Each output is a fixed function of its Weyl state, so the stream is
computed a block at a time: the block's states sit in 128-bit lanes of one
Python int and every xor-shift and multiply acts on all lanes at once
(SWAR, Lamport 1975), masked back to 64 bits per lane after each step so
that no lane carries into its neighbour.  The outputs are those of the
one-at-a-time recurrence, in order.
"""

from __future__ import annotations

import sys
from array import array
from itertools import chain, repeat

_MASK64 = (1 << 64) - 1
_TOP = 1 << 64
_GAMMA = 0x9E3779B97F4A7C15

# Lanes per block: the first blocks are small, so that a caller needing a
# few draws does not pay for a long one, and later blocks amortize the
# per-block cost over more outputs.
_BLOCK_SIZES = (16, 64, 256, 1024, 2048)


def _lanes(k: int) -> tuple:
    """(k, ones, weyl, low) for a block of k lanes: ``ones`` has a 1 at the
    foot of each 128-bit lane, ``weyl`` holds (j + 1)·gamma in lane j and
    ``low`` masks the low 64 bits of every lane."""
    ones = int.from_bytes((b"\x01" + bytes(15)) * k, "little")
    ramp = int.from_bytes(b"".join((j + 1).to_bytes(16, "little") for j in range(k)), "little")
    low = int.from_bytes((b"\xff" * 8 + bytes(8)) * k, "little")
    return k, ones, _GAMMA * ramp, low


_SCHEDULE = tuple(_lanes(k) for k in _BLOCK_SIZES)


def _block(state: int, lanes: tuple) -> tuple[list, int]:
    """The next k outputs after the Weyl state ``state``, and the state
    after them."""
    k, ones, weyl, low = lanes
    z = (state * ones + weyl) & low
    z = ((z ^ (z >> 30)) & low) * 0xBF58476D1CE4E5B9 & low
    z = ((z ^ (z >> 27)) & low) * 0x94D049BB133111EB & low
    z = (z ^ (z >> 31)) & low
    words = array("Q", z.to_bytes(16 * k, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words[::2].tolist(), (state + k * _GAMMA) & _MASK64


def _blocks(state: int):
    """Successive output blocks of the stream after ``state``."""
    for lanes in chain(_SCHEDULE, repeat(_SCHEDULE[-1])):
        block, state = _block(state, lanes)
        yield block


class SplitMix64:
    """splitmix64 stream; state advances by the golden-ratio increment.

    ``stream`` is the iterator of raw 64-bit outputs that every method
    draws from; a caller may draw from it directly, in turn with them.
    """

    __slots__ = ("stream",)

    def __init__(self, seed: int) -> None:
        self.stream = chain.from_iterable(_blocks(seed & _MASK64))

    def next_u64(self) -> int:
        return next(self.stream)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), n <= 2**64; rejection keeps it unbiased."""
        if not 0 < n <= _TOP:
            raise ValueError("randrange needs a bound in 1..2**64")
        limit = _TOP - _TOP % n
        for x in self.stream:
            if x < limit:
                return x % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        return seq[self.randrange(len(seq))]

    def shuffle(self, seq: list) -> None:
        for i in range(len(seq) - 1, 0, -1):
            j = self.randrange(i + 1)
            seq[i], seq[j] = seq[j], seq[i]

    def sample(self, seq, k: int) -> list:
        pool = list(seq)
        self.shuffle(pool)
        return pool[:k]
