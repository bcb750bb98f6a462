"""Seedable, splittable random streams.

All stochastic operations in the package take an explicit
``numpy.random.Generator``. Streams are single-owner: parallel work must
derive one stream per task with :func:`split_stream` or
:func:`split_streams` rather than sharing.

The split function is fixed so results are bit-reproducible across runs
and worker counts: stream ``i`` of master seed ``s`` is
``PCG64(SeedSequence(s, spawn_key=(i,)))``. Seeds and indices are
non-negative integers; a negative one raises InputError.

The streams are derived without building a ``SeedSequence`` per stream.
Its hash (NumPy NEP 19) first mixes the seed's 32-bit words into a pool of
four words, which does not depend on ``i``: one ``SeedSequence`` per seed
gives that pool, and it is cached. The words of ``i`` are then mixed into
the pool, and the pool is expanded to the words that seed ``PCG64``. The
hash constant of each of these steps is fixed, whatever the data, so they
are cached too, and both steps run lane-wise in numpy, one lane per index.
Tests hold every derived stream's state equal to the ``SeedSequence`` one
for seeds up to 2^128 + 11 and indices up to 2^64 + 1.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import islice

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .errors import InputError

__all__ = ["make_stream", "split_stream", "split_streams"]

# SeedSequence's constants (numpy/random/bit_generator.pyx)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF
_POOL = 4


def _steps(const: int, mult: int):
    """(constant before, constant after) of each hash step, from ``const``."""
    while True:
        after = const * mult & _MASK
        yield const, after
        const = after


def _hashmix(value, step):
    """SeedSequence's hashmix, on uint32 arrays, which wrap as it does."""
    value = (value ^ step[0]) * step[1]
    return value ^ value >> 16


def _mix(x, y):
    value = _MIX_MULT_L * x - _MIX_MULT_R * y
    return value ^ value >> 16


def _words(value: int) -> list[int]:
    """The 32-bit words of a non-negative integer, low first; 0 is one word."""
    words = [value & _MASK]
    while value := value >> 32:
        words.append(value & _MASK)
    return words


def _columns(steps) -> tuple[np.ndarray, np.ndarray]:
    """The constants before and after ``steps``, as uint32 columns; cached
    and shared, so read-only."""
    columns = tuple(np.array(c, np.uint32)[:, None] for c in zip(*steps))
    for column in columns:
        column.setflags(write=False)
    return columns


# generate_state's steps: output word d hashes pool word d % 4
_OUT_POOL = np.arange(2 * _POOL) % _POOL
_OUT = _columns(islice(_steps(_INIT_B, _MULT_B), 2 * _POOL))


@lru_cache(maxsize=64)
def _seed_columns(seed: int, width: int):
    """The pool SeedSequence holds once it has mixed in the words of
    ``seed``, padded with zeros because a spawn key follows, shape (4, 1);
    and, per word of a spawn key of ``width`` words, the steps that mix it in."""
    entropy = _words(seed)
    entropy += [0] * (_POOL - len(entropy))
    pool = np.random.SeedSequence(np.array(entropy, np.uint32)).pool[:, None]
    pool.setflags(write=False)
    # mixing in the seed took four steps per word
    steps = islice(_steps(_INIT_A, _MULT_A), _POOL * len(entropy), None)
    return pool, tuple(_columns(islice(steps, _POOL)) for _ in range(width))


class _PCGSeed(ISeedSequence):
    """The four words one PCG64 asks of its seed sequence, found in advance."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise InputError("precomputed stream seeds only serve PCG64")
        return self.words


def make_stream(seed: int) -> np.random.Generator:
    """Return the root PCG64 stream for a 64-bit master seed."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def split_stream(seed: int, index: int) -> np.random.Generator:
    """Return derived stream ``index`` of master ``seed``.

    Distinct indices give statistically independent streams; the mapping
    is pure, so replicate ``index`` reproduces identically no matter how
    replicates are scheduled. The one-index case of :func:`split_streams`.
    """
    return split_streams(seed, index, index + 1)[0]


def split_streams(seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """Derived streams ``start``..``stop``-1 of master ``seed``: element k
    is ``split_stream(seed, start + k)``."""
    if seed < 0 or start < 0:
        raise InputError(f"seed and index must be >= 0, got {seed} and {start}")
    out = []
    while start < stop:
        # the indices of one pass share their count of 32-bit words
        width = len(_words(start))
        end = min(stop, 1 << 32 * width)
        pool, key = _seed_columns(seed, width)
        for k, steps in enumerate(key):
            word = np.array([i >> 32 * k & _MASK for i in range(start, end)], np.uint32)
            pool = _mix(pool, _hashmix(word, steps))
        words = _hashmix(pool[_OUT_POOL], _OUT)
        # generate_state(4, uint64) reads the words as little-endian pairs
        states = np.ascontiguousarray(words.T, "<u4").view("<u8").astype(np.uint64, copy=False)
        out += [np.random.Generator(np.random.PCG64(_PCGSeed(row))) for row in states]
        start = end
    return out
