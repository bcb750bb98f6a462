"""Brute-force ground truth for tiny instances.

Exhaustive enumeration of ordered edge sequences, exact spanning-tree
counts on complete bipartite graphs, and the statistical equivalence test
between the configuration-model sampler and the exact uniform law. Wherever
these oracles and the closed-form theory overlap, the oracles win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations, islice

import numpy as np

from .errors import SizeError
from .generators import tp_multiset_counts
from .graph import BipartiteMultigraph, components, tree_census
from .rng import make_stream

__all__ = [
    "ExhaustiveCensus",
    "exhaustive_census",
    "enumerate_bipartite_trees",
    "EquivalenceReport",
    "tp_equivalence_test",
]

SEQUENCE_CAP = 10**7
# subsets per disjoint-union graph in enumerate_bipartite_trees: large enough
# to amortise numpy's per-call cost, small enough to keep memory flat
_TREE_CHUNK = 1 << 10


@dataclass(frozen=True)
class ExhaustiveCensus:
    """Complete enumeration of the (m*n)^t ordered edge sequences.

    ``outcome_frequencies`` maps each canonical multiset (sorted tuple of
    edge codes left*n + right) to the number of *valid* sequences — those
    whose graph has minimum degree 1 on both sides — that produce it, so the
    values sum to ``valid_count``.
    """

    m: int
    n: int
    t: int
    total_sequences: int
    valid_count: int
    outcome_frequencies: dict[tuple[int, ...], int]


def exhaustive_census(
    m: int,
    n: int,
    t: int,
    cap: int = SEQUENCE_CAP,
    track_outcomes: bool = True,
    chunk: int = 1 << 18,
) -> ExhaustiveCensus:
    """Iterate every ordered edge sequence, recording validity and (optionally)
    the multiset frequencies of the valid ones.

    Raises SizeError when (m*n)^t exceeds ``cap``. When t < max(m, n) no
    sequence can be valid, so nothing is iterated.
    """
    if m < 1 or n < 1 or t < 0:
        raise SizeError("need m, n >= 1 and t >= 0")
    total = (m * n) ** t
    if total > cap:
        raise SizeError(f"(m*n)^t = {total} exceeds the cap {cap}")
    if t < max(m, n):
        return ExhaustiveCensus(m, n, t, total, 0, {})
    # t >= max(m, n) and (m*n)^t <= cap force m, n to be small, so 64-bit
    # coverage masks suffice
    full_left = (1 << m) - 1
    full_right = (1 << n) - 1
    mn = m * n
    valid = 0
    freq: dict[tuple[int, ...], int] = {}
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        rows = idx.shape[0]
        digits = np.empty((rows, t), dtype=np.int64) if track_outcomes else None
        left_mask = np.zeros(rows, dtype=np.int64)
        right_mask = np.zeros(rows, dtype=np.int64)
        rem = idx
        for pos in range(t):
            rem, digit = np.divmod(rem, mn)
            left_mask |= np.int64(1) << (digit // n)
            right_mask |= np.int64(1) << (digit % n)
            if track_outcomes:
                digits[:, pos] = digit
        ok = (left_mask == full_left) & (right_mask == full_right)
        valid += int(ok.sum())
        if track_outcomes and ok.any():
            kept = np.sort(digits[ok], axis=1)
            uniq, counts = np.unique(kept, axis=0, return_counts=True)
            for row, c in zip(uniq, counts):
                key = tuple(int(v) for v in row)
                freq[key] = freq.get(key, 0) + int(c)
    return ExhaustiveCensus(m, n, t, total, valid, freq)


def enumerate_bipartite_trees(i: int, j: int) -> int:
    """Exact count of labeled spanning trees of the complete bipartite graph
    on (i, j) vertices, by enumerating all (i+j-1)-edge subsets and testing
    connectivity. Capped at i*j <= 20.

    Each batch of _TREE_CHUNK subsets becomes one graph of disjoint (i, j)
    blocks; a block with i+j-1 edges is connected exactly when it is an
    (i, j)-tree, so the batch's count is one entry of its tree census.
    """
    if i < 1 or j < 1:
        raise SizeError("need i, j >= 1")
    if i * j > 20:
        raise SizeError(f"enumeration capped at i*j <= 20, got {i * j}")
    need = i + j - 1
    subsets = combinations(range(i * j), need)
    count = 0
    while True:
        codes = np.fromiter(
            chain.from_iterable(islice(subsets, _TREE_CHUNK)), dtype=np.int64
        ).reshape(-1, need)
        blocks = codes.shape[0]
        if blocks == 0:
            return count
        block = np.arange(blocks)[:, None]
        edges = np.stack([block * i + codes // j, block * j + codes % j], axis=-1)
        g = BipartiteMultigraph(blocks * i, blocks * j, edges.reshape(-1, 2))
        count += int(tree_census(components(g), i, j)[i, j])


@dataclass(frozen=True)
class EquivalenceReport:
    """Result of comparing configuration-model samples to the exact law."""

    m: int
    n: int
    t: int
    samples: int
    n_outcomes: int
    tv_distance: float
    threshold: float
    passed: bool


def tv_distance(
    p: dict[tuple[int, ...], float], q: dict[tuple[int, ...], float]
) -> float:
    """Total variation distance between two distributions over multiset keys."""
    keys = set(p) | set(q)
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def tp_equivalence_test(
    m: int,
    n: int,
    t: int,
    samples: int,
    rng: np.random.Generator | None = None,
    cap: int = SEQUENCE_CAP,
) -> EquivalenceReport:
    """Check that configuration-model samples match the exact uniform law.

    The exact law is the enumeration of all valid ordered sequences,
    collapsed to canonical edge multisets; the empirical law is ``samples``
    bulk configuration-model draws collapsed the same way. Passes when the
    total variation distance is at most 3 * sqrt(n_outcomes / samples), a
    threshold that scales with the Monte Carlo noise floor instead of a
    fixed constant.
    """
    rng = make_stream(0) if rng is None else rng
    census = exhaustive_census(m, n, t, cap=cap)
    if census.valid_count == 0:
        raise SizeError(f"no valid outcomes at (m={m}, n={n}, t={t})")
    exact = {
        k: c / census.valid_count for k, c in census.outcome_frequencies.items()
    }
    counts = tp_multiset_counts(m, n, t, samples, rng)
    empirical = {k: c / samples for k, c in counts.items()}
    tv = tv_distance(exact, empirical)
    n_outcomes = len(exact)
    threshold = 3.0 * math.sqrt(n_outcomes / samples)
    return EquivalenceReport(
        m=m,
        n=n,
        t=t,
        samples=samples,
        n_outcomes=n_outcomes,
        tv_distance=tv,
        threshold=threshold,
        passed=tv <= threshold,
    )
