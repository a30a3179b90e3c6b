"""Deterministic random numbers, defined by algorithm rather than library.

The generator is SplitMix64: a 64-bit counter advanced by the golden-ratio
increment, finalized with two xor-shift multiplies.  Every check derives its
own stream from ``(seed, check name)`` via FNV-1a hashing, so checks can run
in any order or in parallel without changing their draws.  Ports in other
languages reproduce the byte-identical sequence from this file alone:

    state <- state + 0x9E3779B97F4A7C15            (mod 2^64)
    z <- state
    z <- (z xor (z >> 30)) * 0xBF58476D1CE4E5B9    (mod 2^64)
    z <- (z xor (z >> 27)) * 0x94D049BB133111EB    (mod 2^64)
    output z xor (z >> 31)

    uniform()    = (output >> 11) * 2^-53          in [0, 1)
    int_below(n) = output mod n                    (documented modulo bias;
                                                    n stays tiny here)
    stream(seed, name) seeds with fnv1a64(utf8(name)) xor seed
"""

from __future__ import annotations

__all__ = ["SEED_LIMIT", "SplitMix64", "fnv1a64", "stream"]

#: Every seed is a 64-bit word, below this limit; a config or ``--seed``
#: at or above it is rejected, as the generator would read it modulo 2^64.
SEED_LIMIT = 1 << 64

_MASK = SEED_LIMIT - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """FNV-1a hash of ``data``, 64-bit."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


class SplitMix64:
    """SplitMix64 generator (see module docstring for the exact algorithm)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_raw(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK
        return z ^ (z >> 31)

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision."""
        return (self.next_raw() >> 11) * 2.0**-53

    def symmetric(self, scale: float = 1.0) -> float:
        """Uniform draw in [-scale, scale)."""
        return scale * (2.0 * self.uniform() - 1.0)

    def int_below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); plain modulo, bias documented."""
        if n <= 0:
            raise ValueError("n must be positive")
        return self.next_raw() % n

    def choice(self, seq):
        return seq[self.int_below(len(seq))]


def stream(seed: int, name: str) -> SplitMix64:
    """Independent generator for one named check under a run seed."""
    return SplitMix64(fnv1a64(name.encode("utf-8")) ^ (seed & _MASK))
