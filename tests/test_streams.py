"""Spawned generators seeded in one pass against numpy's SeedSequence."""

import itertools

import numpy as np
import pytest

from iseasim.streams import spawned_generators

SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 7, 2**130 + 3]
ENTRIES = [0, 2**32 - 1, 2**32 + 5]


def _reference(entropy, row):
    return np.random.SeedSequence(entropy, spawn_key=tuple(int(v) for v in row))


@pytest.mark.parametrize("entropy", SEEDS)
def test_matches_seed_sequence_children(entropy):
    # Entries of one and two words mix in one call, so several hash runs
    # share it; the last column is the stream index the pipeline uses.
    keys = np.array([(2, a, b, j) for a, b in itertools.product(ENTRIES, ENTRIES)
                     for j in range(4)], dtype=np.int64)
    gens = list(spawned_generators(entropy, keys))
    assert len(gens) == len(keys)
    for row, gen in zip(keys, gens):
        ss = _reference(entropy, row)
        assert gen.bit_generator.seed_seq.generate_state(4, np.uint64).tobytes() \
            == ss.generate_state(4, np.uint64).tobytes()
        ref = np.random.default_rng(ss)
        assert gen.bit_generator.state == ref.bit_generator.state
        assert gen.random(3).tobytes() == ref.random(3).tobytes()
        assert gen.standard_normal(5).tobytes() == ref.standard_normal(5).tobytes()


@pytest.mark.parametrize("keys", [
    np.array([[2**32 + 5], [7], [2**64 - 1]], dtype=np.uint64),
    np.array([[2**70, 1], [3, 2**100 + 9], [0, 0]], dtype=object),
    np.array([[5]], dtype=np.int32),
])
def test_integer_dtypes_and_long_entries(keys):
    gens = list(spawned_generators(2**64 + 7, keys))
    assert len(gens) == len(keys)
    for row, gen in zip(keys, gens):
        ref = np.random.default_rng(_reference(2**64 + 7, row))
        assert gen.bit_generator.state == ref.bit_generator.state


def test_no_rows_give_no_generators():
    assert list(spawned_generators(3, np.zeros((0, 4), dtype=np.int64))) == []


@pytest.mark.parametrize("keys", [np.array([[1, -1]]), np.array([[3], [-(2**70)]], dtype=object)])
def test_negative_entry_raises_as_seed_sequence_does(keys):
    with pytest.raises(ValueError, match="non-negative"):
        np.random.SeedSequence(0, spawn_key=tuple(keys[-1]))
    with pytest.raises(ValueError, match="non-negative"):
        spawned_generators(0, keys)


def test_negative_entropy_raises():
    with pytest.raises(ValueError, match="non-negative"):
        spawned_generators(-1, np.array([[1]]))


@pytest.mark.parametrize("keys", [np.array([[1.0]]), np.array([[True]])])
def test_non_integer_entries_raise(keys):
    with pytest.raises(TypeError):
        spawned_generators(0, keys)


@pytest.mark.parametrize("keys", [np.array([1, 2]), np.zeros((2, 0), dtype=np.int64)])
def test_keys_must_be_rows_of_entries(keys):
    with pytest.raises(ValueError, match="spawn_keys"):
        spawned_generators(0, keys)


def test_stand_in_seed_gives_only_the_pcg64_state():
    gen, = spawned_generators(0, np.array([[1, 2]]))
    with pytest.raises(ValueError, match="PCG64"):
        gen.bit_generator.seed_seq.generate_state(8, np.uint32)
