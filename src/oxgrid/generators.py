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
            many streams, which run in lock-step) and
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
from itertools import compress
from typing import Sequence

import numpy as np

from .distributions import (
    TruncatedPoissonParams,
    _pmf_ratios,
    _support_pmf,
    sample_truncated,
    sample_truncated_streams,
    solve_rate,
)
from .errors import AttemptsExhausted, InputError
from .graph import BipartiteMultigraph
from .rng import make_stream, stream_uniforms

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


def _coverable(m: int, n: int, t: int | None) -> bool:
    """Whether t edges can cover every vertex of (m, n); InputError for a
    triple that breaks the ``gr`` precondition."""
    _check_gr(m, n, t)
    return t >= max(m, n)


def _check_min_degree(m: int, n: int, t: int | None) -> None:
    """The precondition of ``gr1`` and ``tp``: t edges can cover every
    vertex (:func:`_coverable`), so every vertex can reach degree 1."""
    if not _coverable(m, n, t):
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


def _gr_codes(
    m: int, n: int, t: int, rng: np.random.Generator, rows: int | None = None
) -> np.ndarray:
    """t uniform draws from the m*n edge slots as edge codes left*n + right,
    in draw order; with ``rows``, shape (rows, t), drawn as ``rows`` calls
    without it would draw them one after another."""
    _check_gr(m, n, t)
    return rng.integers(0, m * n, size=t if rows is None else (rows, t))


def sample_gr(m: int, n: int, t: int, rng: np.random.Generator) -> BipartiteMultigraph:
    """t independent uniform draws from the m*n edge slots, in draw order."""
    return BipartiteMultigraph(m, n, np.column_stack(np.divmod(_gr_codes(m, n, t, rng), n)))


def _covering_codes(
    m: int,
    n: int,
    t: int,
    rows: int,
    batch: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """The first ``rows`` gr draws of t edge codes that leave no vertex
    isolated, shape (rows, t), in draw order: gr rows are drawn ``batch``
    at a time, and a row is kept when it sets all of its row of a coverage
    table, left vertices then right ones. Raises AttemptsExhausted when
    ``DEFAULT_MAX_ATTEMPTS`` batches do not hold ``rows`` of them, and
    before any draw when ``rows`` at the estimated acceptance
    (1 - e^(-t/m))^m (1 - e^(-t/n))^n need more than 1000 times that many
    attempts. Hit vertices are negatively associated (Dubhashi & Ranjan,
    RSA 13(2), 1998), so the exact acceptance is at most the product over
    sides of (1 - (1 - 1/k)^t)^k, which on sides up to 10^5 is at most
    (1 - 1/e)^-2 ~ 2.503 times the estimate: such a budget all but surely
    fails."""
    _check_min_degree(m, n, t)
    attempts = DEFAULT_MAX_ATTEMPTS * batch
    accept = (-math.expm1(-t / m)) ** m * (-math.expm1(-t / n)) ** n
    if rows > 1000 * attempts * accept:
        raise AttemptsExhausted(
            f"no min-degree-1 sample drawn at (m={m}, n={n}, t={t}): {rows} would need "
            f"about {rows / accept if accept else math.inf:.3e} attempts, over 1000 times "
            f"the budget of {attempts}; estimated acceptance probability {accept:.3e}"
        )
    base = np.arange(0, batch * (m + n), m + n)[:, None]  # each row's first entry
    kept: list[np.ndarray] = []
    have = 0
    for _ in range(DEFAULT_MAX_ATTEMPTS):
        codes = _gr_codes(m, n, t, rng, batch)
        left, right = np.divmod(codes, n)
        covered = np.zeros(batch * (m + n), dtype=bool)
        covered[left + base] = True
        covered[right + (base + m)] = True
        codes = codes[covered.reshape(batch, -1).all(axis=1)]
        if codes.shape[0]:
            kept.append(codes)
            have += codes.shape[0]
            if have >= rows:
                return np.concatenate(kept)[:rows]
    raise AttemptsExhausted(
        f"no min-degree-1 sample in {attempts} attempts at (m={m}, n={n}, t={t}); "
        f"estimated acceptance probability {accept:.3e}"
    )


def sample_gr1(m: int, n: int, t: int, rng: np.random.Generator) -> BipartiteMultigraph:
    """Uniform sample with minimum degree 1: redraw gr until no vertex is
    isolated, at most ``DEFAULT_MAX_ATTEMPTS`` times."""
    codes = _covering_codes(m, n, t, 1, 1, rng)[0]
    return BipartiteMultigraph(m, n, np.column_stack(np.divmod(codes, n)))


# Vectors of at most this many coordinates are conditioned whole, by
# rejection with a forced last coordinate; longer ones are split in half
# first. At 64 the genome fixtures' sides (19 to 38 vertices) stay on the
# rejection loop, which costs them less than a split and its sum-law table.
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

    The pmf over :func:`_support_pmf`'s K values, shifted to support
    0..K-1, is raised to the j-th power by FFT modulo N, a power of two
    with N >= 80 sd + 2K, and read cyclically from N/2 below the mean, so
    the mass that wraps onto the window lies over 40 sd from the mean. A zero at each end makes a clipped lookup read 0
    outside the window. The table is cached and shared, so it is read-only.
    """
    params = TruncatedPoissonParams.from_rate(rate)
    # the whole support, not pmf_table's cut of it: its length sets the FFT
    # size N, and with it every bit of the law
    shifted = _support_pmf(params)
    size = 1 << math.ceil(math.log2(80 * math.sqrt(j * params.variance) + 2 * shifted.size))
    cyclic = np.fft.irfft(np.fft.rfft(shifted, size) ** j, size)
    lo = max(0, round(j * (params.mean - 1)) - size // 2)
    law = np.zeros(size + 2)
    law[1:-1] = np.maximum(cyclic[np.arange(lo, lo + size) % size], 0.0)
    law /= law.max()
    law.setflags(write=False)
    return j + lo - 1, law


class _Budget:
    """The candidate vectors one conditioning call has drawn on one stream,
    how many of them it accepted and how many their acceptance
    probabilities predicted; the limit is checked before each batch."""

    def __init__(self, count: int, total: int, limit: int):
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


def _owners(
    rows: np.ndarray,
    vectors: int,
    rngs: Sequence[np.random.Generator],
    budgets: Sequence[_Budget],
) -> tuple[list[np.random.Generator], list[_Budget]]:
    """The generators and budgets of the streams that own ``rows``, ascending
    rows of a block of ``vectors`` per stream, in which row r is stream
    r // vectors's. A block is one vector per stream or one stream, so each
    owner's first row is one of every ``vectors``."""
    streams = (rows[::vectors] // vectors).tolist()
    return [rngs[s] for s in streams], [budgets[s] for s in streams]


def _draws(
    params: TruncatedPoissonParams, rngs: Sequence[np.random.Generator], size: int
) -> np.ndarray:
    """:func:`sample_truncated_streams`, with one stream drawing through this
    module's ``sample_truncated``, where tests and profilers can watch it."""
    if len(rngs) == 1:
        return sample_truncated(params, rngs[0], size)
    return sample_truncated_streams(params, rngs, size)


def _accepted_prefixes(
    params: TruncatedPoissonParams,
    h: int,
    j: int,
    targets: np.ndarray,
    predicted: np.ndarray,
    rngs: Sequence[np.random.Generator],
    budgets: Sequence[_Budget],
) -> np.ndarray:
    """One h-coordinate prefix per row: iid draws, kept with probability
    P(S_j = target - s) / max_r P(S_j = r), where s is the prefix sum.
    ``predicted`` is each row's estimated chance of keeping a candidate.

    The rows come in stream order, an equal run of them for each stream
    ``rngs[s]``, which charges ``budgets[s]``; a block is one vector per
    stream or one stream, so the open streams keep equal runs of open rows.
    In each round every open stream, in order, is charged for its open
    rows, then draws their candidate prefixes and then one keep uniform for
    each, as it would alone; one lookup, one row sum and one ``law.take``
    serve all the streams, and a stream closes once its rows are kept."""
    first, law = _sum_law(params.rate, j)
    out = np.empty((targets.size, h), dtype=np.int64)
    open_rows = np.arange(targets.size)
    offsets = targets - first  # each open row's target as an index into law
    while True:
        each = open_rows.size // len(rngs)  # every open stream's open rows
        for budget, expected in zip(budgets, predicted.reshape(-1, each).sum(axis=1).tolist()):
            budget.spend(each, expected)
        draws = _draws(params, rngs, each * h).reshape(-1, h)
        u = stream_uniforms(rngs, each)
        keep = u < law.take(offsets - draws.sum(axis=1), mode="clip")
        kept = int(np.count_nonzero(keep))
        if not kept:
            continue
        out[open_rows[keep]] = draws[keep]
        hits = np.count_nonzero(keep.reshape(-1, each), axis=1)
        for budget, accepted in zip(budgets, hits.tolist()):
            budget.accepted += accepted
        if kept == open_rows.size:
            return out
        lacks = (hits < each).tolist()
        if not all(lacks):
            rngs, budgets = list(compress(rngs, lacks)), list(compress(budgets, lacks))
        redraw = ~keep
        open_rows, offsets, predicted = open_rows[redraw], offsets[redraw], predicted[redraw]


def _leaf_vectors(
    params: TruncatedPoissonParams,
    count: int,
    target: int,
    vectors: int,
    rngs: Sequence[np.random.Generator],
    budgets: Sequence[_Budget],
) -> np.ndarray:
    """``vectors`` vectors of ``count`` >= 2 iid draws from each stream,
    each conditioned on summing to ``target``, shape (len(rngs), vectors,
    count), by rejection with a deterministic last coordinate (Arratia &
    DeSalvo 2016). A candidate is ``count - 1`` iid draws; its last
    coordinate is ``target`` minus their sum, and it is kept with
    probability P(Y = last) / max_k P(Y = k) (:func:`_pmf_ratios`), which
    is 0 for a last coordinate below 1. So a candidate is kept with
    probability proportional to the product of its ``count`` pmfs, which
    is the conditional law, and 1 / max_k P(Y = k) times as often as
    ``count`` iid draws hit ``target``.

    Each round, every open stream draws a batch of candidates and then one
    keep uniform per candidate, and its hits fill its rows in draw order
    until it has ``vectors`` of them. The streams run in lock-step, but
    each draws exactly what it would draw alone and spends its own budget;
    the open streams are charged in index order, so the first one to run
    out raises. A stream's generator and budget leave the round together
    once it has its vectors."""
    first, ratio, peak = _pmf_ratios(params.rate)
    # local CLT at the mean: count iid draws hit target with chance
    # ~ 1/sqrt(2 pi var count), and a candidate is kept 1/peak times as often
    p_keep = 1.0 / (math.sqrt(2.0 * math.pi * params.variance * count) * peak)
    # Both floors are 8 candidates. At the genome fixtures' one-vector
    # leaves, where the floor binds, 8 took the least time of 4, 6, 8, 12 and
    # 16. For many vectors, tp_multiset_counts restarts and short leaves ran
    # as fast with 8 as with 64
    if vectors == 1:
        # the wait is geometric, its sd near its mean: batches of about a
        # fifth of it keep the overshoot small
        batch = int(min(4096, max(8, round(0.2 / p_keep))))
    else:
        # 1.2 times the expected need mostly finishes in one batch
        batch = max(8, min(int(1.2 * vectors / p_keep) + 1, 4_000_000 // count))
    expected = batch * min(1.0, p_keep)
    free = count - 1
    out = np.empty((len(rngs), vectors, count), dtype=np.int64)
    flat = out.reshape(-1, count)  # stream s fills rows s * vectors onwards
    fill = np.arange(0, len(rngs) * vectors, vectors)  # each open stream's next row
    end = fill + vectors
    while rngs:  # the streams still short of vectors
        for budget in budgets:
            budget.spend(batch, expected)
        draws = _draws(params, rngs, batch * free).reshape(-1, free)
        u = stream_uniforms(rngs, batch)
        # einsum sums a short last axis several times faster than sum
        last = target - np.einsum("ij->i", draws)
        hits = np.flatnonzero(u < ratio.take(last - first, mode="clip"))
        if not hits.size:
            continue
        # hits ascend, so each stream's hits are one run of them in draw
        # order: it keeps the first ones, up to what it lacks, as rows fill,
        # fill + 1, ... Only the hits are ranked, not the whole batch
        bounds = np.searchsorted(hits, np.arange(len(rngs) + 1) * batch)
        counts = np.diff(bounds)
        for budget, accepted in zip(budgets, counts.tolist()):
            budget.accepted += accepted
        taken = np.minimum(counts, end - fill)
        cut = np.cumsum(taken)
        base = cut - taken  # each stream's first kept hit among all kept ones
        rank = np.arange(cut[-1])
        kept = hits[rank + np.repeat(bounds[:-1] - base, taken)]
        rows = rank + np.repeat(fill - base, taken)
        flat[rows, :free] = draws[kept]
        flat[rows, free] = last[kept]
        fill = fill + taken
        short = fill < end
        lacks = short.tolist()
        if not any(lacks):
            break
        rngs, budgets = list(compress(rngs, lacks)), list(compress(budgets, lacks))
        fill, end = fill[short], end[short]
    return out


def _split(
    params: TruncatedPoissonParams,
    count: int,
    total: int,
    rngs: Sequence[np.random.Generator],
    budgets: Sequence[_Budget],
    out: np.ndarray,
) -> None:
    """Fill ``out``, shape (len(rngs), vectors, ``count`` > ``_LEAF``),
    with vectors summing to ``total``, stream s drawing the rows of
    ``out[s]``; the recursive step of :func:`_condition`.

    Every row of every stream shares the split point and the rate of each
    level; rows that start afresh do so through :func:`_restart`. Row r of
    the block is stream r // vectors's, so the streams a level draws on
    follow from its rows (:func:`_owners`), and each draws as many
    candidates a round as every other."""
    vectors = out.shape[1]
    assert vectors == 1 or len(rngs) == 1, "a block is one vector per stream or one stream"
    flat = out.reshape(-1, count)  # a view: out is C-contiguous
    rows = np.arange(flat.shape[0])  # the rows still conditioned at this rate
    targets = np.full(rows.size, total, dtype=np.int64)  # what each has left to sum to
    z = np.zeros(rows.size)  # their targets' distance from the mean, in sd
    done = 0
    while rows.size:
        h = (count - done) // 2
        rest = count - done - h
        # local CLT: a row keeps a candidate with chance ~ sqrt(j/(h+j)) e^(-z^2/2)
        predicted = math.sqrt(rest / (count - done)) * np.exp(-0.5 * z * z)
        block = _owners(rows, vectors, rngs, budgets)
        prefix = _accepted_prefixes(params, h, rest, targets, predicted, *block)
        flat[rows, done : done + h] = prefix
        targets -= prefix.sum(axis=1)
        done += h
        if rest <= _LEAF:
            _restart(flat, done, rest, rows, vectors, targets, rngs, budgets)
            return
        z = (targets - rest * params.mean) / math.sqrt(rest * params.variance)
        fresh = np.abs(z) > _STRAY
        if np.count_nonzero(fresh):
            _restart(flat, done, rest, rows[fresh], vectors, targets[fresh], rngs, budgets)
            stay = ~fresh
            rows, targets, z = rows[stay], targets[stay], z[stay]


def _restart(
    flat: np.ndarray,
    done: int,
    rest: int,
    rows: np.ndarray,
    vectors: int,
    targets: np.ndarray,
    rngs: Sequence[np.random.Generator],
    budgets: Sequence[_Budget],
) -> None:
    """Condition the last ``rest`` coordinates of each row of ``flat`` in
    ``rows`` (ascending, row r drawn by stream r // vectors) afresh on its
    ``targets`` entry, one call per target in ascending order. A block is
    one vector per stream or one stream, so every stream at a target brings
    as many rows, and restarts them in the order it would alone."""
    for target in sorted(set(targets.tolist())):
        at = rows[targets == target]
        block = _owners(at, vectors, rngs, budgets)
        each = at.size // len(block[0])  # the rows each of its streams brings
        flat[at, done:] = _condition(each, rest, target, *block).reshape(-1, rest)


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
    ``_STRAY`` sd from its mean, starts afresh at the rate of its own mean.
    At most ``_LEAF`` coordinates, rows with equal totals together, are
    conditioned whole (:func:`_leaf_vectors`): all but the last coordinate
    are drawn iid, the last is what the total leaves, and the row is kept
    with probability P(Y = last) / max_k P(Y = k). Every step is exact, so
    the vectors follow the conditional law up to float rounding in the
    tables.

    A block is one vector per stream or one stream (a leaf takes any block).
    The streams run in lock-step at every length, each drawing exactly what
    it would draw alone. A block fails as its first stream that fails
    alone: lock-step can reach a later stream's limit before an earlier
    one's, so when a long side runs out, every stream is put back where it
    stood and the streams run again one at a time (a lone stream reruns
    once and fails again the same way).
    """
    if total == count:
        return np.ones((len(rngs), vectors, count), dtype=np.int64)  # forced: every degree is 1
    if count == 1:
        return np.full((len(rngs), vectors, 1), total, dtype=np.int64)  # forced single vertex
    params = solve_rate(total / count)
    if count <= _LEAF:
        # every stream draws batches of one size, so streams whose budgets
        # start level run out in the same round and the first one raises; a
        # leaf restarted inside a split leaves that to the split's rerun
        return _leaf_vectors(params, count, total, vectors, rngs, budgets)
    out = np.empty((len(rngs), vectors, count), dtype=np.int64)
    saved = [(rng.bit_generator.state, vars(b).copy()) for rng, b in zip(rngs, budgets)]
    try:
        _split(params, count, total, rngs, budgets, out)
    except AttemptsExhausted:
        for rng, budget, (state, counters) in zip(rngs, budgets, saved):
            rng.bit_generator.state = state
            vars(budget).update(counters)
        for s in range(len(rngs)):
            _split(params, count, total, rngs[s : s + 1], budgets[s : s + 1], out[s : s + 1])
    return out


def _stubs(degrees: np.ndarray) -> np.ndarray:
    """Stub owners of each row of a (..., count) degree array whose rows
    share one sum t: vertex v repeated degree-of-v times, shape (..., t),
    int64. The owners are repeated in the narrowest dtype that holds
    ``count`` and widened once."""
    count = degrees.shape[-1]
    owners = np.tile(np.arange(count, dtype=np.min_scalar_type(count)), degrees.size // count)
    stubs = np.repeat(owners, degrees.ravel()).astype(np.int64)
    return stubs.reshape(*degrees.shape[:-1], -1)


def _paired_stubs(
    m: int,
    n: int,
    t: int,
    vectors: int,
    rngs: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray]:
    """``vectors`` tp graphs per stream as stub owners ``(left, right)``,
    each of shape (len(rngs), vectors, t): edge k of a graph joins
    ``left[..., k]`` and ``right[..., k]``. A block is either one graph per
    stream (``vectors == 1``) or one stream.

    Each stream conditions its left degree vectors, then its right ones
    (:func:`_condition`, a budget of ``DEFAULT_MAX_ATTEMPTS`` candidate
    vectors per graph and side), then shuffles each of its graphs' right
    stubs in turn, which draws what ``permutation(t)`` draws for each.
    """
    _check_min_degree(m, n, t)
    # every stream draws its left side before its right, and both sides are
    # conditioned before any stubs are laid out, which keeps the peak small
    limit = DEFAULT_MAX_ATTEMPTS * vectors
    left, right = [
        _condition(vectors, count, t, rngs, [_Budget(count, t, limit) for _ in rngs])
        for count in (m, n)
    ]
    left, right = _stubs(left), _stubs(right)
    for rows, rng in zip(right, rngs):
        rng.permuted(rows, axis=1, out=rows)
    return left, right


def sample_tp_edges(
    m: int, n: int, t: int, rngs: Sequence[np.random.Generator]
) -> np.ndarray:
    """The edges of one :func:`sample_tp` graph per stream, shape
    (len(rngs), t, 2): row r is exactly ``sample_tp(m, n, t, rngs[r]).edges``.

    The one-graph-per-stream case of :func:`_paired_stubs`: every stream
    makes the draws that :func:`sample_tp` makes on it, with its own budget
    of ``DEFAULT_MAX_ATTEMPTS`` candidate vectors per side, and the streams
    run in lock-step, so a round of candidates costs one inverse-CDF lookup
    for all of them.
    """
    left, right = _paired_stubs(m, n, t, 1, rngs)
    edges = np.empty((len(rngs), t, 2), dtype=np.int64)
    edges[:, :, 0], edges[:, :, 1] = left[:, 0], right[:, 0]
    return edges


def sample_tp(m: int, n: int, t: int, rng: np.random.Generator) -> BipartiteMultigraph:
    """Truncated-Poisson configuration model.

    Left degrees are iid truncated Poisson with mean t/m conditioned to sum
    to t, right degrees likewise with mean t/n (the algorithm is described
    at :func:`_condition`); vertex stubs are then paired by a single uniform
    permutation and collapsed. ``DEFAULT_MAX_ATTEMPTS`` bounds the candidate
    vectors drawn per side. The one-stream case of :func:`sample_tp_edges`.
    """
    return BipartiteMultigraph(m, n, sample_tp_edges(m, n, t, [rng])[0])


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
        other = "p" if field == "t" else "t"
        if getattr(self, other) is not None:
            raise InputError(f"model {self.kind!r} takes {field}, not {other}")
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
    top = int(code_rows.max())
    # rows sort fastest in the narrowest dtype that holds every code
    ordered = np.sort(code_rows.astype(np.min_scalar_type(top)), axis=1).astype(np.int64)
    t = ordered.shape[1]
    bits = max(top.bit_length(), 1)
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
) -> dict[tuple[int, ...], int]:
    """Empirical distribution of the tp model over canonical edge multisets.

    The one-stream, ``samples``-graph case of the construction behind
    :func:`sample_tp` (:func:`_paired_stubs`; the conditioning is described
    at :func:`_condition`). Keys are sorted tuples of edge codes
    left*n + right. Each side may draw DEFAULT_MAX_ATTEMPTS candidate
    vectors per sample.
    """
    if samples < 1:
        raise InputError("samples must be >= 1")
    left, right = _paired_stubs(m, n, t, samples, [rng])
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
) -> dict[tuple[int, ...], int]:
    """Empirical distribution of gr1 over canonical edge multisets: the
    ``samples``-graph case of :func:`sample_gr1`'s rejection, 2^16 gr draws
    a batch."""
    if samples < 1:
        raise InputError("samples must be >= 1")
    return _multiset_counts_from_codes(_covering_codes(m, n, t, samples, 1 << 16, rng))
