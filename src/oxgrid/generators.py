"""The four random bipartite models.

* ``gr``  — t edge slots drawn uniformly with replacement.
* ``gr1`` — gr conditioned on minimum degree 1 on both sides, sampled by
            rejection (reference implementation; acceptance decays fast
            when t barely exceeds max(m, n)).
* ``tp``  — configuration model: truncated-Poisson degree vectors
            conditioned to sum to t on each side, stubs paired by a
            uniform permutation. Distribution-identical to ``gr1`` and
            the fast path at scale. One construction serves
            ``sample_tp``, ``sample_tp_edges`` (one graph per stream for
            many streams, which run in lock-step on short sides) and
            ``tp_multiset_counts`` (many graphs on one stream); its exact
            degree conditioning is described at ``_condition``.
* ``er``  — independent edges with probability p on an M x N grid.

All generators are pure functions of their arguments and an explicit rng
stream; identical seeds reproduce identical graphs.
"""

from __future__ import annotations

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


def _check_sides(m: int, n: int) -> None:
    if m < 1 or n < 1:
        raise InputError("m and n must be >= 1")


def _check_gr(m: int, n: int, t: int | None) -> None:
    """The precondition of ``gr``: two non-empty sides and t >= 0 edges."""
    _check_sides(m, n)
    if t is None or t < 0:
        raise InputError(f"t must be an edge count >= 0, got {t}")


def _check_min_degree(m: int, n: int, t: int | None) -> None:
    """The precondition of ``gr1`` and ``tp``: t >= max(m, n), so every
    vertex can reach degree 1."""
    _check_gr(m, n, t)
    if t < max(m, n):
        raise InputError(
            f"minimum degree 1 requires t >= max(m, n): t={t} < max(m, n)={max(m, n)}, "
            "so some vertex must stay isolated"
        )


def _check_er(m: int, n: int, p: float | None) -> None:
    """The precondition of ``er``: an edge probability in [0, 1] on a grid
    the dense sampler can hold."""
    _check_sides(m, n)
    if p is None or not 0.0 <= p <= 1.0:  # NaN fails the comparison
        raise InputError(f"er requires an edge probability p in [0, 1], got {p}")
    if m * n > 1 << 28:
        raise InputError("grid too large for the dense independent-edge sampler")


def sample_gr(m: int, n: int, t: int, rng: np.random.Generator) -> BipartiteMultigraph:
    """t independent uniform draws from the m*n edge slots, in draw order."""
    _check_gr(m, n, t)
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
    _check_min_degree(m, n, t)
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
    """The candidate vectors one conditioning call has drawn on one stream,
    how many of them it accepted and how many their acceptance
    probabilities predicted; the limit is checked before each batch."""

    def __init__(self, count: int, total: int, limit: int):
        if limit < 1:
            raise InputError(f"max_attempts must be >= 1, got {limit}")
        self.count, self.total, self.limit = count, total, limit
        self.drawn = self.accepted = 0
        self.expected = 0.0

    def spend(self, candidates: int, expected: float) -> None:
        """Charge a batch of ``candidates``, unless the limit is reached."""
        if self.drawn >= self.limit:
            raise AttemptsExhausted(
                f"degree-sum conditioning stopped at its budget of {self.limit} "
                f"candidate vectors (count={self.count}, total={self.total}): "
                f"attempts={self.drawn}, accepted={self.accepted}, observed acceptance "
                f"{self.accepted / self.drawn:.3g}, predicted {self.expected / self.drawn:.3g}"
            )
        self.drawn += candidates
        self.expected += expected


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
        budget.spend(open_rows.size, float(predicted.sum()))
        draws = sample_truncated(params, rng, open_rows.size * h).reshape(-1, h)
        keep = rng.random(open_rows.size) < law.take(offsets - draws.sum(axis=1), mode="clip")
        out[open_rows[keep]] = draws[keep]
        budget.accepted += int(np.count_nonzero(keep))
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
    budgets: Sequence[_Budget],
) -> np.ndarray:
    """``vectors`` vectors of ``count`` iid draws from each stream, each
    summing to ``target``, shape (len(rngs), vectors, count), by whole-vector
    rejection: each stream draws batches of candidates whose hits fill its
    rows in draw order, until it has ``vectors`` of them.

    The streams run in lock-step, but each draws exactly what it would draw
    alone and spends its own budget; the open streams are charged in index
    order, so the first one to run out raises."""
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
        open_streams = streams.tolist()
        for s in open_streams:
            budgets[s].spend(batch, expected)
        draws = _draws(params, [rngs[s] for s in open_streams], batch * count)
        draws = draws.reshape(streams.size, batch, count)
        # einsum sums a short last axis several times faster than sum
        hits = np.einsum("ijk->ij", draws) == target
        if not np.count_nonzero(hits):
            continue
        # a stream keeps its first hits in draw order, up to what it lacks:
        # the hit of rank r among its stream's hits fills row fill + r - 1
        slot = hits.cumsum(axis=1, dtype=np.int32)  # out has far fewer than 2^31 rows
        for s, accepted in zip(open_streams, slot[:, -1].tolist()):
            budgets[s].accepted += accepted
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
    :func:`_condition`."""
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
            out[group, done:] = _condition(group.size, rest, int(target), [rng], [budget])[0]
        rows, targets, z = rows[~fresh], targets[~fresh], z[~fresh]


def _condition(
    vectors: int,
    count: int,
    total: int,
    rngs: Sequence[np.random.Generator],
    budgets: Sequence[_Budget],
) -> np.ndarray:
    """``vectors`` independent vectors per stream of ``count`` iid
    truncated-Poisson degrees with mean total/count, each conditioned on
    summing to ``total``; shape (len(rngs), vectors, count). Stream ``s``
    charges its candidate vectors (prefixes and whole leaves) to
    ``budgets[s]``.

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
    Short vectors run the streams in lock-step, long ones split stream by
    stream.
    """
    if total == count:
        return np.ones((len(rngs), vectors, count), dtype=np.int64)  # forced: every degree is 1
    if count == 1:
        return np.full((len(rngs), vectors, 1), total, dtype=np.int64)  # forced single vertex
    params = _rate(total / count)
    if count <= _LEAF:
        return _leaf_vectors(params, count, total, vectors, rngs, budgets)
    out = np.empty((len(rngs), vectors, count), dtype=np.int64)
    for rows, rng, budget in zip(out, rngs, budgets):
        _split(params, count, total, rng, budget, rows)
    return out


def _stubs(degrees: np.ndarray) -> np.ndarray:
    """Stub owners of each row of a (..., count) degree array whose rows
    share one sum t: vertex v repeated degree-of-v times, shape (..., t)."""
    count = degrees.shape[-1]
    owners = np.arange(degrees.size, dtype=np.int64) % count
    return np.repeat(owners, degrees.ravel()).reshape(*degrees.shape[:-1], -1)


def _paired_stubs(
    m: int,
    n: int,
    t: int,
    vectors: int,
    rngs: Sequence[np.random.Generator],
    max_attempts: int,
) -> tuple[np.ndarray, np.ndarray]:
    """``vectors`` tp graphs per stream as stub owners ``(left, right)``,
    each of shape (len(rngs), vectors, t): edge k of a graph joins
    ``left[..., k]`` and ``right[..., k]``.

    Each stream conditions its left degree vectors, then its right ones
    (:func:`_condition`, a budget of ``max_attempts`` candidate vectors per
    side), then shuffles each of its graphs' right stubs in turn, which
    draws what ``permutation(t)`` draws for each.
    """
    _check_min_degree(m, n, t)
    # every stream draws its left side before its right, and both sides are
    # conditioned before any stubs are laid out, which keeps the peak small
    left, right = [
        _condition(vectors, count, t, rngs, [_Budget(count, t, max_attempts) for _ in rngs])
        for count in (m, n)
    ]
    left, right = _stubs(left), _stubs(right)
    for rows, rng in zip(right, rngs):
        rng.permuted(rows, axis=1, out=rows)
    return left, right


def sample_tp_edges(
    m: int,
    n: int,
    t: int,
    rngs: Sequence[np.random.Generator],
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
) -> np.ndarray:
    """The edges of one :func:`sample_tp` graph per stream, shape
    (len(rngs), t, 2): row r is exactly ``sample_tp(m, n, t, rngs[r]).edges``.

    The one-graph-per-stream case of :func:`_paired_stubs`: every stream
    makes the draws that :func:`sample_tp` makes on it, with its own budget
    of ``max_attempts`` candidate vectors per side, and short sides run the
    streams in lock-step, so a batch of candidates costs one inverse-CDF
    lookup for all of them.
    """
    left, right = _paired_stubs(m, n, t, 1, rngs, max_attempts)
    edges = np.empty((len(rngs), t, 2), dtype=np.int64)
    edges[:, :, 0], edges[:, :, 1] = left[:, 0], right[:, 0]
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
    to t, right degrees likewise with mean t/n (the algorithm is described
    at :func:`_condition`); vertex stubs are then paired by a single uniform
    permutation and collapsed. ``max_attempts`` bounds the candidate vectors
    drawn per side. The one-stream case of :func:`sample_tp_edges`.
    """
    return BipartiteMultigraph(m, n, sample_tp_edges(m, n, t, [rng], max_attempts)[0])


def sample_er(
    m: int, n: int, p: float, rng: np.random.Generator
) -> BipartiteMultigraph:
    """Each of the m*n possible edges present independently with probability p
    (simple graph, row-major edge order)."""
    _check_er(m, n, p)
    mask = rng.random((m, n)) < p
    edges = np.argwhere(mask)
    return BipartiteMultigraph(m, n, edges)


# each model's sampler, its precondition and the ModelSpec field that holds
# its third parameter
_MODELS = {
    "gr": (sample_gr, _check_gr, "t"),
    "gr1": (sample_gr1, _check_min_degree, "t"),
    "tp": (sample_tp, _check_min_degree, "t"),
    "er": (sample_er, _check_er, "p"),
}


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
        if self.kind not in _MODELS:
            raise InputError(f"unknown model kind {self.kind!r}")
        _, check, field = _MODELS[self.kind]
        check(self.m, self.n, getattr(self, field))

    def sample(self, rng: np.random.Generator | None = None) -> BipartiteMultigraph:
        sampler, _, field = _MODELS[self.kind]
        rng = make_stream(self.seed) if rng is None else rng
        return sampler(self.m, self.n, getattr(self, field), rng)


def er_params_for(m: int, n: int, t: int) -> tuple[int, int, float]:
    """Map (m, n, t) to the independent-edge model that mimics it after
    isolated vertices are removed.

    Returns (M, N, p) with M = round(t/rate_left), N = round(t/rate_right),
    p = rate_left*rate_right/t. Rounding to integers is an approximation the
    continuous correspondence does not need; minimum 1 per side.
    """
    _check_sides(m, n)
    if t <= max(m, n):
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

    The one-stream, ``samples``-graph case of the construction behind
    :func:`sample_tp` (:func:`_paired_stubs`; the conditioning is described
    at :func:`_condition`). Keys are sorted tuples of edge codes
    left*n + right. ``max_attempts`` bounds the candidate vectors per side;
    by default it is DEFAULT_MAX_ATTEMPTS per sample.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    if max_attempts is None:
        max_attempts = DEFAULT_MAX_ATTEMPTS * samples
    left, right = _paired_stubs(m, n, t, samples, [rng], max_attempts)
    codes = left[0]
    codes *= n
    codes += right[0]
    return _multiset_counts_from_codes(codes)


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
