"""splitmix64 stream: published outputs, and block evaluation against the
one-output-per-call reference."""

import random

import pytest

from oracles import RefSplitMix64
from decomp_lab.rng import _BLOCK_SIZES, _SCHEDULE, SplitMix64, _block

SEEDS = [0, 1, 2**64 - 1, -12345, random.Random(20261019).getrandbits(64)]
# draws enough to cross the boundaries of the first four blocks and more
SPAN = sum(_BLOCK_SIZES[:4]) + 3


def test_seed_zero_gives_the_published_outputs():
    # the first outputs of splitmix64 seeded with 0 (Vigna's reference code)
    want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == want
    ref = RefSplitMix64(0)
    assert [ref.next_u64() for _ in range(3)] == want


@pytest.mark.parametrize("seed", SEEDS)
def test_each_block_and_the_state_after_it_match_the_reference(seed):
    ref = RefSplitMix64(seed)
    state = seed & (2**64 - 1)
    for lanes in _SCHEDULE + _SCHEDULE[-1:]:
        block, state = _block(state, lanes)
        assert block == [ref.next_u64() for _ in range(lanes[0])]
        assert state == ref._state


@pytest.mark.parametrize("seed", SEEDS)
def test_stream_and_methods_match_the_reference_across_blocks(seed):
    rng, ref = SplitMix64(seed), RefSplitMix64(seed)
    assert [rng.next_u64() for _ in range(SPAN)] == [ref.next_u64() for _ in range(SPAN)]
    rng, ref = SplitMix64(seed), RefSplitMix64(seed)
    # bounds whose rejection zone is wide (2**63 + 1 rejects almost half the
    # draws) or empty (powers of two), mixed with the raw stream
    for n in (1, 2, 3, 7, 1000, 2**63 + 1, 2**64 - 1, 2**64):
        assert [rng.randrange(n) for _ in range(300)] == [ref.randrange(n) for _ in range(300)]
        assert next(rng.stream) == ref.next_u64()
    assert [rng.randint(-3, 3) for _ in range(50)] == [ref.randint(-3, 3) for _ in range(50)]
    assert [rng.choice("abcde") for _ in range(50)] == [ref.choice("abcde") for _ in range(50)]
    mine, theirs = list(range(700)), list(range(700))
    rng.shuffle(mine)
    ref.shuffle(theirs)
    assert mine == theirs
    assert rng.sample(range(2000), 40) == ref.sample(range(2000), 40)
    assert rng.next_u64() == ref.next_u64()


def test_randrange_rejects_a_nonpositive_bound():
    with pytest.raises(ValueError):
        SplitMix64(1).randrange(0)
