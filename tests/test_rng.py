"""Stream derivation: every derived stream starts where
``PCG64(SeedSequence(seed, spawn_key=(index,)))`` starts."""

import numpy as np
import pytest

from oxgrid.errors import InputError
from oxgrid.rng import split_stream, split_streams, stream_uniforms

# one-, two-, three- and five-word seeds; one-, two- and three-word indices,
# with the edges where the word count changes
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**128 + 11]
INDICES = [0, 1, 31, 32, 2**32 - 1, 2**32, 2**64 + 1]


def _reference(seed: int, index: int) -> dict:
    return np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))).state


@pytest.mark.parametrize("seed", SEEDS)
def test_split_stream_starts_where_seed_sequence_does(seed):
    for index in INDICES:
        assert split_stream(seed, index).bit_generator.state == _reference(seed, index)


@pytest.mark.parametrize("seed", SEEDS)
def test_split_streams_start_where_seed_sequence_does(seed):
    ranges = [(i, i + 3) for i in INDICES]
    ranges += [(0, 40), (2**32 - 2, 2**32 + 2), (2**64 - 2, 2**64 + 2)]
    for start, stop in ranges:
        states = [g.bit_generator.state for g in split_streams(seed, start, stop)]
        assert states == [_reference(seed, i) for i in range(start, stop)]


def test_split_streams_of_an_empty_range_is_empty():
    assert split_streams(3, 5, 5) == []


@pytest.mark.parametrize("seed,start", [(-1, 0), (0, -1)])
def test_negative_seeds_and_starts_are_input_errors(seed, start):
    with pytest.raises(InputError):
        split_streams(seed, start, start + 3)


@pytest.mark.parametrize(
    "streams,size",
    # a numpy int's case keeps the id it had when the test also took lists
    [(3, 5), (1, 4), (2, 0), pytest.param(3, np.int64(6), id="3-sizes8"), (0, 3)],
)
def test_stream_uniforms_are_each_streams_own_draws_end_to_end(streams, size):
    u = stream_uniforms(split_streams(7, 0, streams), size)
    alone = [split_stream(7, i).random(size) for i in range(streams)]
    assert np.array_equal(u, np.concatenate([np.empty(0), *alone]))
