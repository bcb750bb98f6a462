"""Brute-force ground truth for tiny instances.

Every oracle here judges each object it enumerates on its own:

- ``exhaustive_census`` tests each of the (m*n)^t ordered edge sequences
  for minimum degree 1. A sequence is a base-(m*n) number, split into a
  prefix of its low digits and a suffix of its high ones (meet in the
  middle, Horowitz & Sahni 1974); the coverage mask of each half comes from
  a small table, so a sequence costs one OR and one compare.
- ``enumerate_bipartite_trees`` builds the (i+j-1)-edge subsets of the
  complete bipartite graph that cover every vertex, as bit masks, and
  judges each on its own mask: a reachability closure from one vertex, run
  over all subsets at once, tells whether the subset is connected, hence a
  spanning tree.
- ``tp_equivalence_test`` compares configuration-model samples with the
  exact uniform law of the census, tallied by the same multiset routine.

Wherever these oracles and the closed-form theory overlap, the oracles win.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SizeError
from .generators import _multiset_counts_from_codes, tp_multiset_counts
from .rng import make_stream

__all__ = [
    "ExhaustiveCensus",
    "exhaustive_census",
    "enumerate_bipartite_trees",
    "EquivalenceReport",
    "tp_equivalence_test",
]

SEQUENCE_CAP = 10**7


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


def _coverage_masks(m: int, n: int, digits: int, dtype: np.dtype) -> np.ndarray:
    """Coverage mask of every sequence of ``digits`` edge codes, at the
    sequence's base-(m*n) index with its first edge as the lowest digit.
    Left vertex a sets bit a and right vertex b sets bit m + b."""
    code = np.arange(m * n)
    edge = ((1 << (code // n)) | (1 << (m + code % n))).astype(dtype)
    masks = np.zeros(1, dtype=dtype)
    for _ in range(digits):
        # the edge added last is the highest digit
        masks = (edge[:, None] | masks).ravel()
    return masks


def exhaustive_census(
    m: int,
    n: int,
    t: int,
    cap: int = SEQUENCE_CAP,
    track_outcomes: bool = True,
    chunk: int = 1 << 18,
) -> ExhaustiveCensus:
    """Test every ordered edge sequence for minimum degree 1, recording the
    valid count and (optionally) the multiset frequencies of the valid ones.

    Sequence s is the base-(m*n) number of its edge codes, first edge
    lowest. It splits into a prefix of the low t//2 digits and a suffix of
    the rest, and its coverage mask is the OR of the suffix's and the
    prefix's entries in two tables of at most (m*n)^ceil(t/2) masks, so each
    sequence costs one OR and one compare. The index space is visited in
    ``chunk``-sized ranges; with ``track_outcomes`` only the valid indices
    of a range are decoded into edge codes and tallied.

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
    # t >= max(m, n) and (m*n)^t <= cap force m, n to be small, so m + n
    # coverage bits fit a machine integer
    full = (1 << (m + n)) - 1
    dtype = np.min_scalar_type(full)
    low_masks = _coverage_masks(m, n, t // 2, dtype)
    high_masks = _coverage_masks(m, n, t - t // 2, dtype)
    width = low_masks.shape[0]
    mn = m * n
    valid = 0
    freq: dict[tuple[int, ...], int] = {}
    for start in range(0, total, chunk):
        stop = min(start + chunk, total)
        # all sequences of the suffixes the range touches, then cut to it
        first = start // width
        masks = (high_masks[first : (stop - 1) // width + 1, None] | low_masks).ravel()
        ok = masks[start - first * width : stop - first * width] == full
        hits = np.count_nonzero(ok)
        valid += hits
        if track_outcomes and hits:
            rest = start + np.flatnonzero(ok)
            digits = np.empty((hits, t), dtype=np.int64)
            for pos in range(t):
                rest, digits[:, pos] = np.divmod(rest, mn)
            for key, count in _multiset_counts_from_codes(digits).items():
                freq[key] = freq.get(key, 0) + count
    return ExhaustiveCensus(m, n, t, total, valid, freq)


def _covering_subsets(i: int, j: int) -> np.ndarray:
    """The (i+j-1)-edge subsets of K_{i,j} that cover every vertex, as
    ij-bit masks: edge a*j + b, between left a and right b, is bit a*j + b,
    so row a of a mask lists left a's right neighbours.

    Only covering candidates are built. Each vertex of the longer side picks
    a non-empty set of neighbours on the shorter side, one vertex after
    another; partial masks are grouped by popcount, and a group is dropped
    once the vertices still to pick can no longer bring it to i+j-1 edges.
    The shorter side's coverage is tested on the finished masks."""
    edges = i + j - 1
    bits = (1 << np.arange(i * j, dtype=np.int32)).reshape(i, j)
    # row v: the edge bits of longer-side vertex v, one per shorter-side vertex
    longer = bits if i >= j else bits.T
    size, short = longer.shape
    choice = (np.arange(1, 1 << short)[:, None] >> np.arange(short)).astype(np.int32) & 1
    popcounts = choice.sum(axis=1)
    partial = {0: np.zeros(1, dtype=np.int32)}
    for v, row in enumerate(longer):
        picks = choice @ row  # distinct bits, so the sum is the OR
        after = size - v - 1  # vertices still to pick, at least one edge each
        grown: dict[int, list[np.ndarray]] = {}
        for count, masks in partial.items():
            for p in range(1, short + 1):
                if count + p + after <= edges <= count + p + after * short:
                    grown.setdefault(count + p, []).append(
                        (masks[:, None] | picks[popcounts == p]).ravel()
                    )
        partial = {count: np.concatenate(parts) for count, parts in grown.items()}
    subsets = partial[edges]
    for column in longer.sum(axis=0).tolist():
        subsets = subsets[(subsets & column) != 0]
    return subsets


def _spanning_tree_verdicts(i: int, j: int, subsets: np.ndarray) -> np.ndarray:
    """One verdict per covering (i+j-1)-edge subset of K_{i,j}: is it a
    spanning tree?

    With i+j-1 edges and no vertex uncovered, a subset is a tree exactly when
    it is connected, and it is connected exactly when the right vertices
    reached from left vertex 0 are all of them (every left vertex then has a
    reached neighbour). The reached set of every subset grows at once: a
    left vertex whose row meets the reached set adds its whole row, and the
    sweeps over the rows repeat until no reached set changes."""
    full = (1 << j) - 1
    rows = [(subsets >> (a * j)) & full for a in range(i)]
    reached = rows[0]
    while True:
        before = reached
        for row in rows[1:]:
            reached = np.where((row & reached) != 0, reached | row, reached)
        if np.array_equal(reached, before):
            return reached == full


def enumerate_bipartite_trees(i: int, j: int) -> int:
    """Exact count of labeled spanning trees of the complete bipartite graph
    on (i, j) vertices, by testing every covering (i+j-1)-edge subset for
    connectivity. Capped at i*j <= 20.

    A spanning tree covers every vertex, so the candidates are the ij-bit
    masks with i+j-1 bits set and a bit in every row and column, built
    without the others; each is judged on its own mask by a reachability
    closure from left vertex 0.
    """
    if i < 1 or j < 1:
        raise SizeError("need i, j >= 1")
    if i * j > 20:
        raise SizeError(f"enumeration capped at i*j <= 20, got {i * j}")
    return int(np.count_nonzero(_spanning_tree_verdicts(i, j, _covering_subsets(i, j))))


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
