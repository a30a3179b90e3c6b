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

The state is a Weyl sequence, so a block of draws has a closed form: from
state ``s``, draw ``k`` of ``count`` (``k = 1..count``) finalizes the state
``s + k * 0x9E3779B97F4A7C15 (mod 2^64)``, and the state after the block is
``s + count * 0x9E3779B97F4A7C15 (mod 2^64)``.
:meth:`SplitMix64.symmetric_block` forms these states on a numpy ``uint64``
array, whose products wrap modulo 2^64, and finalizes them all through the
function that :meth:`SplitMix64.next_raw` applies to a Python int, so its
floats are those of ``count`` calls of :meth:`SplitMix64.symmetric`, in
order.
"""

from __future__ import annotations

import numpy as np

__all__ = ["SEED_LIMIT", "SplitMix64", "fnv1a64", "stream"]

#: Every seed is a 64-bit word, below this limit; a config or ``--seed``
#: at or above it is rejected, as the generator would read it modulo 2^64.
SEED_LIMIT = 1 << 64

_MASK = SEED_LIMIT - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

#: The finalizer's shifts, multipliers and mask, in the order
#: :func:`_finalize` takes them, and the increment and the shift of
#: ``uniform``, as numpy ``uint64`` arrays for a block: as array operands
#: they wrap modulo 2^64 silently, and no numpy casts them by value.
_FINALIZER_U64 = tuple(np.array(c, dtype=np.uint64) for c in (30, _MIX1, 27, _MIX2, 31, _MASK))
_GOLDEN_U64 = np.array(_GOLDEN, dtype=np.uint64)
_UNIFORM_SHIFT_U64 = np.array(11, dtype=np.uint64)

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes) -> int:
    """FNV-1a hash of ``data``, 64-bit."""
    h = _FNV_OFFSET
    for byte in data:
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK
    return h


def _finalize(z, s1=30, m1=_MIX1, s2=27, m2=_MIX2, s3=31, mask=_MASK):
    """The output of state ``z``, a Python int; or, with the constants of
    ``_FINALIZER_U64``, the output of each state of a ``uint64`` array."""
    z = ((z ^ (z >> s1)) * m1) & mask
    z = ((z ^ (z >> s2)) * m2) & mask
    return z ^ (z >> s3)


class SplitMix64:
    """SplitMix64 generator (see module docstring for the exact algorithm)."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_raw(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _finalize(self._state)

    def uniform(self) -> float:
        """Uniform draw in [0, 1) with 53 bits of precision."""
        return (self.next_raw() >> 11) * 2.0**-53

    def symmetric(self, scale: float = 1.0) -> float:
        """Uniform draw in [-scale, scale)."""
        return scale * (2.0 * self.uniform() - 1.0)

    def symmetric_block(self, count: int, scale: float = 1.0) -> np.ndarray:
        """The draws of ``count`` calls of :meth:`symmetric`, as a float
        array in draw order; the state after it is theirs (module
        docstring)."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        states = np.array(self._state, dtype=np.uint64) + steps * _GOLDEN_U64
        self._state = (self._state + count * _GOLDEN) & _MASK
        raw = _finalize(states, *_FINALIZER_U64)
        uniform = (raw >> _UNIFORM_SHIFT_U64).astype(float) * 2.0**-53
        return scale * (2.0 * uniform - 1.0)

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
