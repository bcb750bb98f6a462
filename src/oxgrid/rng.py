"""Seedable, splittable random streams.

All stochastic operations in the package take an explicit
``numpy.random.Generator``. Streams are single-owner: parallel work must
derive one stream per task with :func:`split_stream` rather than sharing.

The split function is fixed so results are bit-reproducible across runs
and thread counts: stream ``i`` of master seed ``s`` is
``PCG64(SeedSequence(s, spawn_key=(i,)))``. Seeds and indices are
non-negative integers; a negative one raises InputError.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError

__all__ = ["make_stream", "split_stream"]


def make_stream(seed: int) -> np.random.Generator:
    """Return the root PCG64 stream for a 64-bit master seed."""
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def split_stream(seed: int, index: int) -> np.random.Generator:
    """Return derived stream ``index`` of master ``seed``.

    Distinct indices give statistically independent streams; the mapping
    is pure, so replicate ``index`` reproduces identically no matter how
    replicates are scheduled.
    """
    if seed < 0 or index < 0:
        raise InputError(f"seed and index must be >= 0, got {seed} and {index}")
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,)))
    )
