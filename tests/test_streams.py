"""`numerics.spawned_uniforms` against numpy's own objects.

Row i of `spawned_uniforms(seed, n, draws)` must hold, bit for bit, the
first `draws` values of `Generator(PCG64(child)).random()` for the i-th
child of `SeedSequence(seed).spawn(n)`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quditsim.numerics import STREAM_BLOCK, spawned_uniforms


def _reference(seed, n, draws):
    """The streams built one object at a time, as numpy documents them."""
    generators = (np.random.Generator(np.random.PCG64(child)) for child in np.random.SeedSequence(seed).spawn(n))
    return np.array([[g.random() for _ in range(draws)] for g in generators]).reshape(n, draws)


def _assert_same_bits(got, expected):
    assert got.dtype == np.float64 and got.shape == expected.shape
    assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()


# Seeds of 1 to 8 entropy words: SeedSequence hashes every word beyond the
# fourth once more per pool word before a child's spawn-key word.
WORD_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**128, 2**200 + 3, 2**256 - 1]


@pytest.mark.parametrize("seed", WORD_SEEDS)
@pytest.mark.parametrize("draws", [1, 2, 3, 4])
def test_equals_numpy_streams_for_seeds_of_every_word_count(seed, draws):
    _assert_same_bits(spawned_uniforms(seed, 37, draws), _reference(seed, 37, draws))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**256 - 1), n=st.integers(1, 40), draws=st.integers(1, 4))
def test_equals_numpy_streams_for_any_seed(seed, n, draws):
    _assert_same_bits(spawned_uniforms(seed, n, draws), _reference(seed, n, draws))


@pytest.mark.parametrize("n", [1, 2, STREAM_BLOCK - 1, STREAM_BLOCK, STREAM_BLOCK + 3])
def test_equals_numpy_streams_across_a_block_boundary(n):
    seed = 2**130 + 12345  # five words, so the hash offset is past its minimum
    got = spawned_uniforms(seed, n, 2)
    _assert_same_bits(got, _reference(seed, n, 2))
    assert spawned_uniforms(seed, n + 5)[:n, 0].tolist() == got[:, 0].tolist()  # a prefix of any longer run


def test_numpy_integer_seed_is_taken_as_its_value():
    for seed in (np.uint64(2**64 - 1), np.int64(99), np.uint8(7)):
        _assert_same_bits(spawned_uniforms(seed, 9, 2), _reference(int(seed), 9, 2))


@pytest.mark.parametrize("seed", [-1, np.int64(-5), -(2**70)])
def test_negative_seed_is_refused(seed):
    with pytest.raises(ValueError, match="non-negative"):
        spawned_uniforms(seed, 3)


@pytest.mark.parametrize("seed", [1.0, "7", None])
def test_non_integer_seed_is_refused(seed):
    with pytest.raises(TypeError):
        spawned_uniforms(seed, 3)


def test_empty_request_returns_an_empty_array():
    assert spawned_uniforms(5, 0).shape == (0, 1)
    assert spawned_uniforms(5, 4, 0).shape == (4, 0)
