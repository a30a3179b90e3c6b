"""Tests for the deterministic generator.

The reference values below were computed from an independent transcription
of the documented recurrence (and the seed-0 sequence agrees with the
published SplitMix64 test vector), so these are regression pins, not
copies of the implementation's own output.
"""

import warnings

import numpy as np
import pytest

from curvcheck.rng import SplitMix64, fnv1a64, stream

_MASK = (1 << 64) - 1
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_GOLDEN = 0x9E3779B97F4A7C15


def _reference_raw(seed: int, count: int) -> list[int]:
    """Literal transcription of the documented recurrence."""
    out = []
    state = seed & _MASK
    for _ in range(count):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def test_seed_zero_matches_published_vector():
    rng = SplitMix64(0)
    assert [rng.next_raw() for _ in range(4)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
        0xF88BB8A8724C81EC,
    ]


def test_frozen_vectors_other_seeds():
    rng = SplitMix64(1234567)
    assert [rng.next_raw() for _ in range(4)] == [
        0x599ED017FB08FC85,
        0x2C73F08458540FA5,
        0x883EBCE5A3F27C77,
        0x3FBEF740E9177B3F,
    ]
    wrap = SplitMix64(_MASK)
    assert [wrap.next_raw() for _ in range(2)] == [
        0xE4D971771B652C20,
        0xE99FF867DBF682C9,
    ]


def test_matches_reference_transcription_many_seeds():
    for seed in (0, 1, 2, 17, 10**9, 2**63, _MASK):
        rng = SplitMix64(seed)
        assert [rng.next_raw() for _ in range(20)] == _reference_raw(seed, 20)


def test_uniform_derivation_and_range():
    rng = SplitMix64(7)
    ref = _reference_raw(7, 200)
    for raw in ref:
        value = rng.uniform()
        assert value == (raw >> 11) * 2.0**-53
        assert 0.0 <= value < 1.0


def test_symmetric_range():
    rng = SplitMix64(11)
    for _ in range(200):
        value = rng.symmetric(2.5)
        assert -2.5 <= value < 2.5


def test_int_below_derivation_and_bounds():
    rng = SplitMix64(3)
    ref = _reference_raw(3, 100)
    for raw in ref:
        k = rng.int_below(7)
        assert k == raw % 7
        assert 0 <= k < 7


def test_int_below_rejects_nonpositive():
    rng = SplitMix64(0)
    with pytest.raises(ValueError):
        rng.int_below(0)
    with pytest.raises(ValueError):
        rng.int_below(-3)


def test_choice_uses_int_below():
    seq = ["a", "b", "c", "d", "e"]
    picks = SplitMix64(9)
    indices = SplitMix64(9)
    for _ in range(50):
        assert picks.choice(seq) == seq[indices.int_below(len(seq))]


def test_fnv1a64_frozen_values():
    assert fnv1a64(b"") == _FNV_OFFSET
    assert fnv1a64(b"a") == 0xAF63DC4C8601EC8C
    assert fnv1a64(b"ab") == 0x089C4407B545986A


def test_fnv1a64_recurrence():
    # One more byte folds in as (h xor byte) * prime, mod 2^64.
    assert fnv1a64(b"ab") == ((fnv1a64(b"a") ^ ord("b")) * _FNV_PRIME) & _MASK
    assert fnv1a64(b"a") == ((_FNV_OFFSET ^ ord("a")) * _FNV_PRIME) & _MASK


def test_stream_seeding_rule():
    # stream(seed, name) must seed with fnv1a64(utf8(name)) xor seed.
    rng = stream(42, "demo")
    expected_seed = fnv1a64("demo".encode("utf-8")) ^ 42
    assert rng.next_raw() == _reference_raw(expected_seed, 1)[0]
    assert stream(42, "demo").next_raw() == 0xADC182638585D34A


def _draws(seed: int, name: str, count: int = 5) -> list[int]:
    rng = stream(seed, name)
    return [rng.next_raw() for _ in range(count)]


def test_stream_determinism_and_separation():
    assert _draws(5, "alpha") == _draws(5, "alpha")
    assert _draws(5, "alpha") != _draws(5, "beta")
    assert _draws(5, "alpha") != _draws(6, "alpha")


#: Seeds from which a block's states wrap past 2^64 - 1: at its first draw
#: (from 2^64 - 1 and from 2^63), and at its seventh, whose state is 0.
_WRAPPING_SEEDS = (_MASK, (-7 * _GOLDEN) & _MASK, 2**63)


@pytest.mark.parametrize("seed", (0, 1234567, *_WRAPPING_SEEDS))
@pytest.mark.parametrize("count", (0, 1, 7, 1000))
@pytest.mark.parametrize("scale", (1.0, 0.05))
def test_a_block_is_its_draws_one_at_a_time(seed, count, scale):
    block, single = SplitMix64(seed), SplitMix64(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no overflow warning, no cast by value
        drawn = block.symmetric_block(count, scale)
    want = [single.symmetric(scale) for _ in range(count)]
    assert drawn.dtype == np.float64 and drawn.shape == (count,)
    assert drawn.tobytes() == np.array(want, dtype=np.float64).tobytes()
    # the same state afterwards: the next draws agree too
    assert [block.next_raw() for _ in range(3)] == [single.next_raw() for _ in range(3)]
