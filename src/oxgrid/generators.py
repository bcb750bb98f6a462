"""The four random bipartite models.

* ``gr``  — t edge slots drawn uniformly with replacement.
* ``gr1`` — gr conditioned on minimum degree 1 on both sides, sampled by
            rejection (reference implementation; acceptance decays fast
            when t barely exceeds max(m, n)).
* ``tp``  — configuration model: truncated-Poisson degree vectors
            conditioned to sum to t on each side, stubs paired by a
            uniform permutation. Distribution-identical to ``gr1`` and
            the fast path at scale. The conditioning is exact
            probabilistic divide-and-conquer: a long vector keeps a drawn
            first half with probability proportional to the chance that
            the rest sums to what is left, then conditions the rest in the
            same way; vectors of at most ``_LEAF`` coordinates are drawn
            whole until their sum hits. ``sample_tp_edges`` samples one
            graph per stream for many streams at once: each stream makes
            exactly the draws ``sample_tp`` makes on it, and short sides run
            the streams in lock-step so that numpy's fixed cost per call is
            paid once per batch rather than once per stream.
* ``er``  — independent edges with probability p on an M x N grid.

All generators are pure functions of their arguments and an explicit rng
stream; identical seeds reproduce identical graphs.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .distributions import (
    TruncatedPoissonParams,
    pmf,
    sample_truncated,
    sample_truncated_streams,
    solve_rate,
)
from .errors import AttemptsExhausted, InputError
from .graph import BipartiteMultigraph
from .rng import make_stream

__all__ = [
    "ModelSpec",
    "sample_gr",
    "sample_gr1",
    "sample_tp",
    "sample_tp_edges",
    "sample_er",
    "er_params_for",
    "tp_multiset_counts",
    "gr_multiset_counts",
]

DEFAULT_MAX_ATTEMPTS = 10**6


@dataclass(frozen=True)
class ModelSpec:
    """Which generator to run, with its parameters and seed."""

    kind: str  # "gr" | "gr1" | "tp" | "er"
    m: int
    n: int
    t: int | None = None
    p: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("gr", "gr1", "tp", "er"):
            raise InputError(f"unknown model kind {self.kind!r}")
        if self.m < 1 or self.n < 1:
            raise InputError("m and n must be >= 1")
        if self.kind == "er":
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise InputError("er requires edge probability p in [0, 1]")
        else:
            if self.t is None or self.t < 0:
                raise InputError(f"{self.kind} requires an edge count t >= 0")
            if self.kind in ("gr1", "tp") and self.t < max(self.m, self.n):
                raise InputError(
                    f"{self.kind} requires t >= max(m, n) so every vertex can reach degree 1"
                )

    def sample(self, rng: np.random.Generator | None = None) -> BipartiteMultigraph:
        rng = make_stream(self.seed) if rng is None else rng
        if self.kind == "gr":
            return sample_gr(self.m, self.n, self.t, rng)
        if self.kind == "gr1":
            return sample_gr1(self.m, self.n, self.t, rng)
        if self.kind == "tp":
            return sample_tp(self.m, self.n, self.t, rng)
        return sample_er(self.m, self.n, self.p, rng)


def sample_gr(m: int, n: int, t: int, rng: np.random.Generator) -> BipartiteMultigraph:
    """t independent uniform draws from the m*n edge slots, in draw order."""
    if m < 1 or n < 1:
        raise InputError("m and n must be >= 1")
    if t < 0:
        raise InputError("t must be >= 0")
    codes = rng.integers(0, m * n, size=t)
    edges = np.column_stack((codes // n, codes % n))
    return BipartiteMultigraph(m, n, edges)


def _gr1_acceptance_estimate(m: int, n: int, t: int) -> float:
    return (-math.expm1(-t / m)) ** m * (-math.expm1(-t / n)) ** n


def sample_gr1(
    m: int,
    n: int,
    t: int,
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> BipartiteMultigraph:
    """Uniform sample with minimum degree 1: redraw gr until no vertex is isolated."""
    if t < max(m, n):
        raise InputError(
            f"t={t} < max(m, n)={max(m, n)}: some vertex must stay isolated"
        )
    if max_attempts < 1:
        raise InputError("max_attempts must be >= 1")
    for _ in range(max_attempts):
        g = sample_gr(m, n, t, rng)
        left = np.bincount(g.edges[:, 0], minlength=m)
        if left.min() == 0:
            continue
        right = np.bincount(g.edges[:, 1], minlength=n)
        if right.min() == 0:
            continue
        return g
    raise AttemptsExhausted(
        f"no min-degree-1 sample in {max_attempts} attempts at (m={m}, n={n}, t={t}); "
        f"estimated acceptance probability {_gr1_acceptance_estimate(m, n, t):.3e}"
    )


# Vectors of at most this many coordinates are conditioned by whole-vector
# rejection, longer ones are split in half first. At 64 the genome fixtures'
# sides (19 to 38 vertices) stay on the rejection loop, which costs them less
# than a split and its sum-law table.
_LEAF = 64

# A row whose remaining target lies more than this many standard deviations
# from its mean at the current rate is conditioned afresh at the rate of its
# own mean. At the current rate a target z sd out is kept about e^(-z^2/2)
# times as often as one at the mean, and targets stray further level by
# level: at m = 2000, t = 8294 the longest of 4000 waits was 11,981
# candidates without the fresh start and 373 with it, and single waits
# without it passed the default budget of a million.
_STRAY = 2.0


@lru_cache(maxsize=128)
def _sum_law(rate: float, j: int) -> tuple[int, np.ndarray]:
    """``(first, law)`` with ``law[i] = P(S_j = first + i) / max_r P(S_j = r)``,
    where S_j sums j iid truncated-Poisson(rate) values.

    The pmf, shifted to support 0..K-1, is raised to the j-th power by FFT
    modulo N, a power of two with N >= 80 sd + 2K, and read cyclically from
    N/2 below the mean, so the mass that wraps onto the window lies over
    40 sd from the mean. A zero at each end makes a clipped lookup read 0
    outside the window. The table is cached and shared, so it is read-only.
    """
    params = TruncatedPoissonParams.from_rate(rate)
    # pmf works in log space: pmf_table's recurrence starts at e^-rate,
    # which underflows above rate ~ 745
    k_max = int(rate + 60 + 40 * math.sqrt(rate))
    shifted = pmf(params, np.arange(1, k_max + 1))
    size = 1 << math.ceil(math.log2(80 * math.sqrt(j * params.variance) + 2 * k_max))
    cyclic = np.fft.irfft(np.fft.rfft(shifted, size) ** j, size)
    lo = max(0, round(j * (params.mean - 1)) - size // 2)
    law = np.zeros(size + 2)
    law[1:-1] = np.maximum(cyclic[np.arange(lo, lo + size) % size], 0.0)
    law /= law.max()
    law.setflags(write=False)
    return j + lo - 1, law


@lru_cache(maxsize=256)
def _rate(mean: float) -> TruncatedPoissonParams:
    """:func:`solve_rate`, cached: the replicates of one size condition each
    side at the same mean, and the recursion's rests at a few."""
    return solve_rate(mean)


class _Budget:
    """Candidate vectors drawn by one conditioning call on each of its
    streams, how many of them were accepted and how many their acceptance
    probabilities predicted, one entry per stream; a stream's limit is
    checked before each of its batches."""

    def __init__(self, count: int, total: int, limit: int, streams: int = 1):
        if limit < 1:
            raise InputError(f"max_attempts must be >= 1, got {limit}")
        self.count, self.total, self.limit = count, total, limit
        self.drawn = np.zeros(streams, dtype=np.int64)
        self.accepted = np.zeros(streams, dtype=np.int64)
        self.expected = np.zeros(streams)

    def stream(self, s: int) -> "_Budget":
        """Stream ``s`` alone, as a one-stream budget that shares its entries."""
        view = copy.copy(self)
        view.drawn, view.accepted, view.expected = (
            entries[s : s + 1] for entries in (self.drawn, self.accepted, self.expected)
        )
        return view

    def spend(self, streams, candidates: int, expected_accepted: float) -> None:
        """Charge a batch to each of ``streams`` (an index or index array),
        unless one of them has reached the limit."""
        drawn = self.drawn[streams]
        exhausted = drawn >= self.limit
        # one stream's index gives a scalar, an index array an array
        if np.count_nonzero(exhausted) if isinstance(exhausted, np.ndarray) else exhausted:
            first = np.zeros(self.drawn.size, dtype=bool)
            first[streams] = exhausted
            s = first.argmax()
            drawn, accepted, expected = self.drawn[s], self.accepted[s], self.expected[s]
            raise AttemptsExhausted(
                f"degree-sum conditioning stopped at its budget of {self.limit} "
                f"candidate vectors (count={self.count}, total={self.total}): "
                f"attempts={drawn}, accepted={accepted}, observed acceptance "
                f"{accepted / drawn:.3g}, predicted {expected / drawn:.3g}"
            )
        self.drawn[streams] = drawn + candidates
        self.expected[streams] = self.expected[streams] + expected_accepted


def _accepted_prefixes(
    params: TruncatedPoissonParams,
    h: int,
    j: int,
    targets: np.ndarray,
    predicted: np.ndarray,
    rng: np.random.Generator,
    budget: _Budget,
) -> np.ndarray:
    """One h-coordinate prefix per row: iid draws, kept with probability
    P(S_j = target - s) / max_r P(S_j = r), where s is the prefix sum.
    ``predicted`` is each row's estimated chance of keeping a candidate."""
    first, law = _sum_law(params.rate, j)
    out = np.empty((targets.size, h), dtype=np.int64)
    open_rows = np.arange(targets.size)
    offsets = targets - first  # each open row's target as an index into law
    while open_rows.size:
        budget.spend(0, open_rows.size, float(predicted.sum()))
        draws = sample_truncated(params, rng, open_rows.size * h).reshape(-1, h)
        keep = rng.random(open_rows.size) < law.take(offsets - draws.sum(axis=1), mode="clip")
        out[open_rows[keep]] = draws[keep]
        budget.accepted[0] += np.count_nonzero(keep)
        redraw = ~keep
        open_rows, offsets, predicted = open_rows[redraw], offsets[redraw], predicted[redraw]
    return out


def _draws(
    params: TruncatedPoissonParams, rngs: Sequence[np.random.Generator], size: int
) -> np.ndarray:
    """``size`` truncated-Poisson values from each stream, shape (len(rngs), size)."""
    if len(rngs) == 1:
        # one stream draws through this module's sample_truncated, where
        # tests and profilers can watch it
        return sample_truncated(params, rngs[0], size)[None]
    return sample_truncated_streams(params, rngs, size)


def _leaf_vectors(
    params: TruncatedPoissonParams,
    count: int,
    target: int,
    vectors: int,
    rngs: Sequence[np.random.Generator],
    budget: _Budget,
) -> np.ndarray:
    """``vectors`` vectors of ``count`` iid draws from each stream, each
    summing to ``target``, shape (len(rngs), vectors, count), by whole-vector
    rejection: each stream draws batches of candidates whose hits fill its
    rows in draw order, until it has ``vectors`` of them.

    The streams run in lock-step, but each draws exactly what it would draw
    alone and spends its own row of ``budget``."""
    # local CLT at the mean: P(sum hits target) ~ 1/sqrt(2 pi var count)
    p_hit = 1.0 / math.sqrt(2.0 * math.pi * params.variance * count)
    if vectors == 1:
        # the wait is geometric, its sd near its mean: batches of about a
        # fifth of it keep the overshoot small
        batch = int(min(4096, max(8, round(0.2 / p_hit))))
    else:
        # 1.2 times the expected need mostly finishes in one batch
        batch = max(64, min(int(1.2 * vectors / p_hit) + 1, 4_000_000 // count))
    expected = batch * min(1.0, p_hit)
    out = np.empty((len(rngs), vectors, count), dtype=np.int64)
    rows = out.reshape(-1, count)  # stream s fills rows s * vectors onwards
    streams = np.arange(len(rngs))  # the streams still short of vectors
    fill = np.arange(0, len(rngs) * vectors, vectors)  # each open stream's next row
    end = fill + vectors
    while streams.size:
        budget.spend(streams, batch, expected)
        draws = _draws(params, [rngs[s] for s in streams.tolist()], batch * count)
        draws = draws.reshape(streams.size, batch, count)
        # einsum sums a short last axis several times faster than sum
        hits = np.einsum("ijk->ij", draws) == target
        if not np.count_nonzero(hits):
            continue
        # a stream keeps its first hits in draw order, up to what it lacks:
        # the hit of rank r among its stream's hits fills row fill + r - 1
        slot = hits.cumsum(axis=1, dtype=np.int32)  # out has far fewer than 2^31 rows
        budget.accepted[streams] += slot[:, -1]
        slot += (fill - 1)[:, None]
        take = np.flatnonzero(hits & (slot < end[:, None]))
        rows[slot.ravel()[take]] = draws.reshape(-1, count)[take]
        fill = slot[:, -1] + 1
        short = fill < end
        streams, fill, end = streams[short], fill[short], end[short]
    return out


def _split(
    params: TruncatedPoissonParams,
    count: int,
    total: int,
    rng: np.random.Generator,
    budget: _Budget,
    out: np.ndarray,
) -> None:
    """Fill the rows of ``out`` with vectors of ``count`` > ``_LEAF``
    coordinates summing to ``total``, one stream; the recursive step of
    :func:`_conditioned_degrees`."""
    vectors = out.shape[0]
    rows = np.arange(vectors)  # the rows still conditioned at this rate
    targets = np.full(vectors, total, dtype=np.int64)  # what each has left to sum to
    z = np.zeros(vectors)  # their targets' distance from the mean, in sd
    done = 0
    while rows.size:
        h = (count - done) // 2
        rest = count - done - h
        # local CLT: a row keeps a candidate with chance ~ sqrt(j/(h+j)) e^(-z^2/2)
        predicted = math.sqrt(rest / (count - done)) * np.exp(-0.5 * z * z)
        prefix = _accepted_prefixes(params, h, rest, targets, predicted, rng, budget)
        out[rows, done : done + h] = prefix
        targets -= prefix.sum(axis=1)
        done += h
        z = (targets - rest * params.mean) / math.sqrt(rest * params.variance)
        fresh = np.abs(z) > _STRAY if rest > _LEAF else np.ones(rows.size, dtype=bool)
        if not np.count_nonzero(fresh):
            continue
        for target in np.unique(targets[fresh]):
            group = rows[fresh & (targets == target)]
            out[group, done:] = _condition(group.size, rest, int(target), [rng], budget)[0]
        rows, targets, z = rows[~fresh], targets[~fresh], z[~fresh]


def _condition(
    vectors: int,
    count: int,
    total: int,
    rngs: Sequence[np.random.Generator],
    budget: _Budget,
) -> np.ndarray:
    """The body of :func:`_conditioned_degrees` for several streams at once,
    each with its own row of ``budget``; shape (len(rngs), vectors, count).
    Short vectors run the streams in lock-step, long ones split stream by
    stream."""
    if total == count:
        return np.ones((len(rngs), vectors, count), dtype=np.int64)  # forced: every degree is 1
    if count == 1:
        return np.full((len(rngs), vectors, 1), total, dtype=np.int64)  # forced single vertex
    params = _rate(total / count)
    if count <= _LEAF:
        return _leaf_vectors(params, count, total, vectors, rngs, budget)
    out = np.empty((len(rngs), vectors, count), dtype=np.int64)
    for s, (rows, rng) in enumerate(zip(out, rngs)):
        _split(params, count, total, rng, budget.stream(s), rows)
    return out


def _conditioned_degrees(
    vectors: int,
    count: int,
    total: int,
    rng: np.random.Generator,
    max_attempts: int,
) -> np.ndarray:
    """``vectors`` independent vectors of ``count`` iid truncated-Poisson
    degrees with mean total/count, each conditioned on summing to ``total``;
    shape (vectors, count).

    Probabilistic divide-and-conquer (Arratia & DeSalvo, Combin. Probab.
    Comput. 25(3), 2016). A vector longer than ``_LEAF`` draws its first
    h = count // 2 coordinates iid and keeps them with probability
    P(S_j = total - s) / max_r P(S_j = r), where s is their sum and S_j the
    sum of the other j = count - h; the rest is then conditioned in the same
    way on its own remaining total, which differs between rows. The law of
    the rest given its total does not depend on the rate, so a rest of at
    most ``_LEAF`` coordinates, or one whose total strayed more than
    ``_STRAY`` sd from its mean, starts afresh at the rate of its own mean;
    at most ``_LEAF`` coordinates are drawn whole until their sum hits the
    total, rows with equal totals together. Every step is exact, so the
    vectors follow the conditional law up to float rounding in the tables.
    ``max_attempts`` bounds the candidate vectors (prefixes and whole
    leaves) over the whole call.
    """
    return _condition(vectors, count, total, [rng], _Budget(count, total, max_attempts))[0]


def _stubs(degrees: np.ndarray) -> np.ndarray:
    """Stub owners of each row of a (rows, count) degree array whose rows
    share one sum t: vertex v repeated degree-of-v times, shape (rows, t)."""
    rows, count = degrees.shape
    owners = np.arange(rows * count, dtype=np.int64) % count
    return np.repeat(owners, degrees.ravel()).reshape(rows, -1)


def sample_tp_edges(
    m: int,
    n: int,
    t: int,
    rngs: Sequence[np.random.Generator],
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> np.ndarray:
    """The edges of one :func:`sample_tp` graph per stream, shape
    (len(rngs), t, 2): row r is exactly ``sample_tp(m, n, t, rngs[r]).edges``.

    Every stream makes the calls that :func:`sample_tp` makes on it: left
    degrees, right degrees, then one shuffle of its t right stubs, which
    draws what ``permutation(t)`` draws. Short sides run the streams in
    lock-step, so a batch of candidates costs one inverse-CDF lookup for all
    of them; sides longer than ``_LEAF`` are conditioned stream by stream.
    Each stream has its own budget of ``max_attempts`` candidate vectors per
    side, one row of a budget shared by the block.
    """
    if m < 1 or n < 1:
        raise InputError("m and n must be >= 1")
    if t < max(m, n):
        raise InputError(
            f"t={t} < max(m, n)={max(m, n)}: some vertex must stay isolated"
        )
    degrees = [
        _condition(1, count, t, rngs, _Budget(count, t, max_attempts, len(rngs)))[:, 0]
        for count in (m, n)  # every stream draws its left side before its right
    ]
    edges = np.empty((len(rngs), t, 2), dtype=np.int64)
    edges[:, :, 0] = _stubs(degrees[0])
    right = _stubs(degrees[1])
    for row, rng in zip(right, rngs):
        rng.shuffle(row)  # the swaps that permutation(t) makes on arange(t)
    edges[:, :, 1] = right
    return edges


def sample_tp(
    m: int,
    n: int,
    t: int,
    rng: np.random.Generator,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> BipartiteMultigraph:
    """Truncated-Poisson configuration model.

    Left degrees are iid truncated Poisson with mean t/m conditioned to sum
    to t, right degrees likewise with mean t/n; vertex stubs are then paired
    by a single uniform permutation and collapsed. Each side is conditioned
    by :func:`_conditioned_degrees`: sides longer than ``_LEAF`` are split
    in half, the first half drawn iid and kept with probability proportional
    to the chance that the second sums to what is left, recursively; shorter
    ones are redrawn whole until their sum is t. ``max_attempts`` bounds the
    candidate vectors drawn per side. The one-stream case of
    :func:`sample_tp_edges`.
    """
    return BipartiteMultigraph(m, n, sample_tp_edges(m, n, t, [rng], max_attempts)[0])


def sample_er(
    m: int, n: int, p: float, rng: np.random.Generator
) -> BipartiteMultigraph:
    """Each of the m*n possible edges present independently with probability p
    (simple graph, row-major edge order)."""
    if m < 1 or n < 1:
        raise InputError("m and n must be >= 1")
    if not (0.0 <= p <= 1.0) or not math.isfinite(p):
        raise InputError(f"edge probability must lie in [0, 1], got {p}")
    if m * n > 1 << 28:
        raise InputError("grid too large for the dense independent-edge sampler")
    mask = rng.random((m, n)) < p
    edges = np.argwhere(mask)
    return BipartiteMultigraph(m, n, edges)


def er_params_for(m: int, n: int, t: int) -> tuple[int, int, float]:
    """Map (m, n, t) to the independent-edge model that mimics it after
    isolated vertices are removed.

    Returns (M, N, p) with M = round(t/rate_left), N = round(t/rate_right),
    p = rate_left*rate_right/t. Rounding to integers is an approximation the
    continuous correspondence does not need; minimum 1 per side.
    """
    if t < max(m, n) or t / m <= 1.0 or t / n <= 1.0:
        raise InputError("requires t/m > 1 and t/n > 1")
    a = solve_rate(t / m).rate
    b = solve_rate(t / n).rate
    big_m = max(1, round(t / a))
    big_n = max(1, round(t / b))
    return big_m, big_n, a * b / t


# ----------------------------------------------------------------------
# Bulk campaign samplers: many independent samples reduced to canonical
# edge multisets (vertex labels kept, edge order erased). These power the
# distribution-equivalence verification at small (m, n, t).
# ----------------------------------------------------------------------


def _multiset_counts_from_codes(code_rows: np.ndarray) -> dict[tuple[int, ...], int]:
    """Count the rows of non-negative edge codes as multisets: each row
    sorted, then the rows sorted lexicographically and cut into runs of
    equal rows. Keys come in ascending lexicographic order. Needs at least
    one row.

    Each sorted row is packed into the fewest int64 words, floor(63 / bits)
    codes of ``bits`` bits to a word with the first code highest, so the
    words order as the rows do; one word is a single sort."""
    ordered = np.sort(code_rows, axis=1).astype(np.int64, copy=False)
    t = ordered.shape[1]
    bits = max(int(ordered[:, -1].max()).bit_length(), 1)
    per_word = 63 // bits
    shifts = bits * (per_word - 1 - np.arange(t) % per_word)
    words = np.zeros((ordered.shape[0], -(-t // per_word)), dtype=np.int64)
    for pos in range(t):
        words[:, pos // per_word] |= ordered[:, pos] << shifts[pos]
    if words.shape[1] == 1:
        words = np.sort(words, axis=0)
    else:
        # lexsort's primary key is its last one
        words = words[np.lexsort(words.T[::-1])]
    starts = np.flatnonzero(
        np.concatenate([[True], (words[1:] != words[:-1]).any(axis=1)])
    )
    counts = np.diff(np.append(starts, words.shape[0]))
    keys = (words[starts][:, np.arange(t) // per_word] >> shifts) & ((1 << bits) - 1)
    return dict(zip(map(tuple, keys.tolist()), counts.tolist()))


def tp_multiset_counts(
    m: int,
    n: int,
    t: int,
    samples: int,
    rng: np.random.Generator,
    max_attempts: int | None = None,
) -> dict[tuple[int, ...], int]:
    """Empirical distribution of the tp model over canonical edge multisets.

    Vectorizes the same construction as :func:`sample_tp` across all samples:
    conditioned degree vectors (one :func:`_conditioned_degrees` call per
    side, each row splitting and conditioning on its own remaining total),
    stub expansion, per-row uniform pairing. Keys are sorted tuples of edge
    codes left*n + right. ``max_attempts`` bounds the candidate vectors per
    side; by default it is DEFAULT_MAX_ATTEMPTS per sample.
    """
    if t < max(m, n):
        raise InputError("t must be >= max(m, n)")
    if samples < 1:
        raise InputError("samples must be >= 1")
    if max_attempts is None:
        max_attempts = DEFAULT_MAX_ATTEMPTS * samples
    left = _conditioned_degrees(samples, m, t, rng, max_attempts)
    right = _conditioned_degrees(samples, n, t, rng, max_attempts)
    paired = rng.permuted(_stubs(right), axis=1)
    return _multiset_counts_from_codes(_stubs(left) * n + paired)


def gr_multiset_counts(
    m: int,
    n: int,
    t: int,
    samples: int,
    rng: np.random.Generator,
    require_min_degree: bool = True,
    chunk: int = 1 << 16,
) -> dict[tuple[int, ...], int]:
    """Empirical distribution of gr (or gr1 when require_min_degree) over
    canonical edge multisets, for small instances (m, n <= 62)."""
    if m > 62 or n > 62:
        raise InputError("bulk gr sampling uses 64-bit coverage masks; m, n <= 62")
    if samples < 1:
        raise InputError("samples must be >= 1")
    full_left = (1 << m) - 1
    full_right = (1 << n) - 1
    kept: list[np.ndarray] = []
    have = 0
    while have < samples:
        codes = rng.integers(0, m * n, size=(chunk, t))
        if require_min_degree:
            left_mask = np.bitwise_or.reduce(1 << (codes // n), axis=1)
            right_mask = np.bitwise_or.reduce(1 << (codes % n), axis=1)
            codes = codes[(left_mask == full_left) & (right_mask == full_right)]
        if codes.shape[0]:
            kept.append(codes)
            have += codes.shape[0]
    rows = np.concatenate(kept)[:samples]
    return _multiset_counts_from_codes(rows)
