"""Spawned random streams, seeded many at a time.

`spawned_generators(entropy, keys)` gives, for each row of `keys`, the
Generator `np.random.default_rng(np.random.SeedSequence(entropy,
spawn_key=tuple(row)))`, bit for bit.  Building one SeedSequence per
stream costs tens of microseconds of Python; here numpy's SeedSequence
pool hash runs once over all rows as uint32 array arithmetic, and each
row's PCG64 seed words are handed to `np.random.PCG64`, which seeds
itself from them in C as it would from the SeedSequence.

The hash follows numpy's documented algorithm (`numpy.random.SeedSequence`,
pool size 4): the entropy words, zero-padded to the pool size when a spawn
key follows, then the key's words are mixed into the pool, and
`generate_state(4, np.uint64)` turns the pool into the PCG64 seed.  An
integer takes its 32-bit words from the least significant up, at least
one word, so an entry of 2**32 or more spans several words.
"""

from __future__ import annotations

import functools
import operator

import numpy as np

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _hash(value, const, mult):
    """SeedSequence's hash step of uint32 array `value` under the running
    multiplier `const`: returns (hash, next multiplier)."""
    value = value ^ np.uint32(const)
    const = const * mult & _MASK32
    value = value * np.uint32(const)
    return value ^ value >> _XSHIFT, const


def _mix(x, y):
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ result >> _XSHIFT


def _pool(entropy):
    """SeedSequence's pool after mixing in `entropy`, a list of at least
    _POOL_SIZE uint32 word arrays that broadcast over the rows."""
    const = _INIT_A
    pool = []
    for word in entropy[:_POOL_SIZE]:
        value, const = _hash(word, const, _MULT_A)
        pool.append(value)
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                value, const = _hash(pool[src], const, _MULT_A)
                pool[dst] = _mix(pool[dst], value)
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            value, const = _hash(word, const, _MULT_A)
            pool[dst] = _mix(pool[dst], value)
    return pool


def _generate_state(pool):
    """SeedSequence.generate_state(4, np.uint64) of every row: (rows, 4)."""
    const = _INIT_B
    words = []
    for i in range(2 * _POOL_SIZE):
        value, const = _hash(pool[i % _POOL_SIZE], const, _MULT_B)
        words.append(value)
    # pairs of words, low word first, as little-endian uint64
    state = np.stack(words, axis=1).astype("<u4", copy=False)
    return state.view("<u8").astype(np.uint64, copy=False)


def _words(column):
    """The 32-bit words of each non-negative integer of `column`, least
    significant first: a (rows, W) uint32 array and each row's word count
    (at least 1, for 0 too)."""
    if column.dtype.kind not in "iuO":
        raise TypeError(f"seed entries must be integers, got dtype {column.dtype}")
    if (column < 0).any():
        raise ValueError("expected non-negative integer")
    if column.dtype.kind != "O":
        column = column.astype(np.uint64)
    words, counts, rest = [], np.ones(len(column), dtype=np.int64), column
    while True:
        words.append((rest & _MASK32).astype(np.uint32))
        rest = rest >> 32
        more = rest > 0
        if not more.any():
            return np.stack(words, axis=1), counts
        counts += more


@functools.cache
def _seed_stand_in():
    """The ISeedSequence that stands in for a SeedSequence whose PCG64 seed
    words are known.  It is made on first use, because numpy imports
    numpy.random only on first use (about 12 ms), and importing this
    module should not."""

    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("only PCG64's seed state, 4 uint64 words, is known")
            return self.words

    return SeedWords


def spawned_generators(entropy, spawn_keys):
    """An iterator over one Generator per row of the (rows, n >= 1)
    integer array `spawn_keys`, each with the bits of
    `np.random.default_rng(np.random.SeedSequence(entropy,
    spawn_key=tuple(row)))`.  `entropy` is a non-negative integer of any
    size, and so is each key entry (an object array holds entries of 2**64
    or more); a negative one raises ValueError here, as SeedSequence does.
    The hash runs at once; each Generator is made when the iterator
    reaches it, so only the 32 seed bytes of each row are held."""
    keys = np.asarray(spawn_keys)
    if keys.ndim != 2 or keys.shape[1] == 0:
        raise ValueError(f"spawn_keys must be a (rows, n >= 1) array, got shape {keys.shape}")
    run, _ = _words(np.array([operator.index(entropy)], dtype=object))
    # Ahead of a spawn key, the entropy is zero-padded to the pool size.
    run = list(run.T) + [np.zeros(1, np.uint32)] * (_POOL_SIZE - run.shape[1])
    columns = [_words(column) for column in keys.T]
    counts = np.stack([n for _, n in columns], axis=1)
    seeds = np.empty((len(keys), 4), dtype=np.uint64)
    # Rows whose entries span the same numbers of words share one hash run.
    left = np.arange(len(keys))
    while left.size:
        shape = counts[left[0]]
        same = (counts[left] == shape).all(axis=1)
        rows, left = left[same], left[~same]
        key_words = [words[rows, j] for (words, _), n in zip(columns, shape) for j in range(n)]
        seeds[rows] = _generate_state(_pool(run + key_words))
    seed_words = _seed_stand_in()
    return (np.random.Generator(np.random.PCG64(seed_words(row))) for row in seeds)
