import hashlib
import itertools
import math
import time
import warnings
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from scipy import stats

from oxgrid import distributions, generators
from oxgrid.distributions import pmf, solve_rate
from oxgrid.errors import AttemptsExhausted, InputError
from oxgrid.generators import (
    ModelSpec,
    er_params_for,
    gr_multiset_counts,
    sample_er,
    sample_gr,
    sample_gr1,
    sample_tp,
    tp_multiset_counts,
)
from oxgrid.graph import degrees, min_degree
from oxgrid.oracle import exhaustive_census, tv_distance
from oxgrid.rng import make_stream, split_stream
from oxgrid.theory import count_exact, surjection_count


# ----------------------------------------------------------------------
# with-replacement draws
# ----------------------------------------------------------------------


def test_gr_edgeless_and_forced():
    assert sample_gr(3, 4, 0, make_stream(0)).t == 0
    g = sample_gr(1, 1, 3, make_stream(0))
    assert g.edges.tolist() == [[0, 0]] * 3


def test_gr_distinct_probability_matches_exact_product(rng):
    # the exact all-distinct probability for t draws from mn slots is the
    # falling-factorial product, an independent check on the sampler
    m = n = 40
    t = 60
    exact = math.prod(1 - i / (m * n) for i in range(t))
    reps = 4000
    hits = 0
    for i in range(reps):
        g = sample_gr(m, n, t, split_stream(17, i))
        codes = np.sort(g.edges[:, 0] * n + g.edges[:, 1])
        hits += int((np.diff(codes) != 0).all())
    p_hat = hits / reps
    se = math.sqrt(exact * (1 - exact) / reps)
    assert abs(p_hat - exact) <= 3 * se


@pytest.mark.parametrize(
    "make", [lambda: make_stream(-1), lambda: split_stream(-1, 0), lambda: split_stream(0, -1)]
)
def test_streams_reject_negative_seeds_and_indices(make):
    with pytest.raises(InputError):
        make()


# ----------------------------------------------------------------------
# rejection to minimum degree 1
# ----------------------------------------------------------------------


def test_gr1_preconditions():
    with pytest.raises(InputError):
        sample_gr1(2, 2, 1, make_stream(0))


def test_gr1_forced_instance():
    g = sample_gr1(1, 1, 1, make_stream(5))
    assert g.edges.tolist() == [[0, 0]]


def test_gr1_always_covers():
    for i in range(20):
        g = sample_gr1(3, 5, 9, split_stream(23, i))
        assert min_degree(g) == (1, 1) or min(min_degree(g)) >= 1
        assert g.t == 9


def test_gr1_attempts_exhausted_reports_acceptance(monkeypatch):
    # (6,6,6) accepts only permutation matchings: acceptance ~ 2.4e-4,
    # so a couple of attempts nearly surely fail
    monkeypatch.setattr(generators, "DEFAULT_MAX_ATTEMPTS", 2)
    with pytest.raises(AttemptsExhausted) as err:
        sample_gr1(6, 6, 6, make_stream(3))
    assert "acceptance" in str(err.value)


def test_gr1_fails_fast_on_a_hopeless_triple():
    # the acceptance estimate at (30, 30, 30) is 1.1e-12, so a million
    # attempts would all but surely fail; the sampler raises before drawing
    rng = make_stream(0)
    state = rng.bit_generator.state
    start = time.perf_counter()
    with pytest.raises(AttemptsExhausted) as err:
        sample_gr1(30, 30, 30, rng)
    assert time.perf_counter() - start < 1.0
    assert rng.bit_generator.state == state
    message = str(err.value)
    for field in ("(m=30, n=30, t=30)", "budget of 1000000", "acceptance probability 1.117e-12"):
        assert field in message


def test_gr1_acceptance_estimate_is_not_far_below_exact():
    # the cut-off trusts the estimate to within its factor of 1000: the
    # exact acceptance must be at most 10 times the estimate
    for m in range(1, 8):
        for n in range(m, 8):
            for t in range(max(m, n), 41):
                estimate = (-math.expm1(-t / m)) ** m * (-math.expm1(-t / n)) ** n
                assert count_exact(m, n, t) / (m * n) ** t <= 10 * estimate, (m, n, t)


# The gr1 acceptance is a product over the two sides of the chance that t
# uniform draws hit all k vertices of a side, and so are the bound U and the
# estimate below, so each is checked one side at a time.


def test_gr1_acceptance_is_at_most_the_product_bound():
    # the events "vertex v is hit" are negatively associated (Dubhashi &
    # Ranjan, Random Struct. Algorithms 13(2), 1998), so a side's exact
    # acceptance is at most (1 - (1 - 1/k)^t)^k
    for k in range(1, 26):
        for t in range(k, 201):
            exact = math.log(surjection_count(t, k)) - t * math.log(k)
            bound = k * math.log1p(-math.exp(t * math.log1p(-1 / k))) if k > 1 else 0.0
            assert exact <= bound + 1e-12, (k, t)


def test_gr1_product_bound_is_near_the_estimate():
    # a side's bound over its estimate (1 - e^(-t/k))^k is at most
    # 1 / (1 - 1/e), reached at k = t = 1, so U is at most 2.503 times the
    # estimate and the cut-off's factor of 1000 leaves room to spare
    worst = []
    for k in np.unique(np.round(np.geomspace(1, 10**5, 400))).astype(np.int64):
        t = np.unique(np.concatenate([k + np.arange(60), np.ceil(k * np.geomspace(1, 100, 200))]))
        hit = -np.expm1(t * np.log1p(-1.0 / k)) if k > 1 else np.ones(t.size)
        worst.append(np.max(k * (np.log(hit) - np.log(-np.expm1(-t / k)))))
    limit = -math.log(-math.expm1(-1.0))
    assert max(worst) <= limit + 1e-12
    assert worst[0] == pytest.approx(limit, abs=1e-12)
    assert math.exp(2 * limit) == pytest.approx(2.503, abs=5e-4)


def test_gr1_uniform_over_valid_sequences():
    # (2,2,2) has exactly 4 valid ordered sequences (two perfect matchings
    # in either order); the rejection sampler must hit them uniformly
    samples = 20_000
    counts = Counter()
    for i in range(samples):
        g = sample_gr1(2, 2, 2, split_stream(31, i))
        counts[tuple(map(tuple, g.edges.tolist()))] += 1
    assert len(counts) == 4
    result = stats.chisquare(list(counts.values()))
    assert result.pvalue >= 0.001


# (m, n, t) for the with-replacement draws, two of them with a side over 62
GR_STREAM_SIZES = [(1, 1, 3), (3, 4, 0), (5, 3, 8), (70, 2, 100), (64, 80, 200)]
GR1_STREAM_SIZES = [(1, 1, 1), (2, 2, 2), (3, 5, 9), (64, 2, 300), (70, 70, 500)]


@pytest.mark.parametrize(
    "sampler,sizes,expected",
    [
        (sample_gr, GR_STREAM_SIZES,
         "3c5eb1d4503222d0aad394d1d100c83e29786422eec6d703bbd8b72046ed5dd9"),
        (sample_gr1, GR1_STREAM_SIZES,
         "de3e97240a097ed0b21ff0ba4a8da2d4d89aa4846320a064b152426532bf21a2"),
    ],
    ids=["gr", "gr1"],
)
def test_gr_draws_are_pinned(sampler, sizes, expected):
    # replicate i of a seed must keep giving the same graph: the sha256 of
    # these edges over 30 streams a size must not change
    digest = hashlib.sha256()
    for m, n, t in sizes:
        for i in range(30):
            digest.update(sampler(m, n, t, split_stream(2025, i)).edges.tobytes())
    assert digest.hexdigest() == expected


@pytest.mark.parametrize(
    "m,n,t,expected",
    [
        (2, 2, 3, "7a241f896d6322dc65d992d124044ee8560ceaa9b39db8fcf8ea93140f4c458f"),
        (2, 3, 4, "a9769b49c13498ec98e68596ce35295890027662d47577876bdb9f3651269027"),
    ],
)
def test_gr_multiset_counts_are_pinned(m, n, t, expected):
    # the stream the slow gr1-vs-tp campaign uses, with 300,000 samples
    counts = gr_multiset_counts(m, n, t, 300_000, make_stream(62))
    assert hashlib.sha256(repr(list(counts.items())).encode()).hexdigest() == expected


def test_gr_multiset_counts_cover_sides_over_62(rng):
    # the bulk sampler kept 64-bit coverage masks and stopped at 62 a side
    m, n = 64, 2
    counts = gr_multiset_counts(m, n, 200, 200, rng)
    assert sum(counts.values()) == 200
    for key in counts:
        codes = np.array(key)
        assert len(key) == 200
        assert set((codes // n).tolist()) == set(range(m))
        assert set((codes % n).tolist()) == set(range(n))


@pytest.mark.parametrize("tally", [tp_multiset_counts, gr_multiset_counts])
def test_multiset_counts_need_a_sample(tally):
    with pytest.raises(InputError, match="samples must be >= 1"):
        tally(3, 3, 5, 0, make_stream(0))


def test_gr_multiset_counts_checks_the_triple():
    # t < max(m, n) leaves a vertex isolated in every draw: the rejection
    # loop would never end
    for m, n, t in [(3, 2, 2), (0, 2, 3)]:
        with pytest.raises(InputError):
            gr_multiset_counts(m, n, t, 10, make_stream(0))


# ----------------------------------------------------------------------
# configuration model
# ----------------------------------------------------------------------


def test_tp_forced_parallel_edges():
    g = sample_tp(1, 1, 4, make_stream(2))
    assert g.edges.tolist() == [[0, 0]] * 4


def test_tp_boundary_edge_count_is_perfect_matching():
    g = sample_tp(3, 3, 3, make_stream(7))
    left, right = degrees(g)
    assert left.tolist() == [1, 1, 1]
    assert right.tolist() == [1, 1, 1]


@pytest.mark.parametrize("m,n,t", [(2, 2, 3), (5, 3, 8), (10, 10, 25), (4, 9, 12)])
def test_tp_degree_sums_and_coverage(m, n, t):
    for i in range(10):
        g = sample_tp(m, n, t, split_stream(41, i))
        left, right = degrees(g)
        assert left.sum() == t and right.sum() == t
        assert left.min() >= 1 and right.min() >= 1


def test_tp_precondition():
    with pytest.raises(InputError):
        sample_tp(3, 2, 2, make_stream(0))


def test_tp_matches_exact_law_quick():
    census = exhaustive_census(2, 2, 3)
    exact = {k: c / census.valid_count for k, c in census.outcome_frequencies.items()}
    counts = tp_multiset_counts(2, 2, 3, 100_000, make_stream(11))
    empirical = {k: c / 100_000 for k, c in counts.items()}
    assert tv_distance(exact, empirical) <= 3 * math.sqrt(len(exact) / 100_000)


def test_single_call_tp_matches_bulk_distribution():
    # the per-graph API and the vectorized campaign sampler implement the
    # same construction; compare their empirical laws on a tiny instance
    samples = 20_000
    singles = Counter()
    for i in range(samples):
        g = sample_tp(2, 2, 2, split_stream(53, i))
        singles[tuple(sorted(g.edges[:, 0] * 2 + g.edges[:, 1]))] += 1
    bulk = tp_multiset_counts(2, 2, 2, samples, make_stream(54))
    p = {k: c / samples for k, c in singles.items()}
    q = {k: c / samples for k, c in bulk.items()}
    assert tv_distance(p, q) <= 3 * math.sqrt(2 * len(p) / samples)


@pytest.mark.slow
@pytest.mark.parametrize("m,n,t", [(2, 2, 3), (2, 3, 4)])
def test_tp_and_gr1_have_the_same_law(m, n, t):
    # two very different samplers, one distribution: compare a million
    # samples of each over canonical multisets
    samples = 1_000_000
    tp = tp_multiset_counts(m, n, t, samples, make_stream(61))
    gr1 = gr_multiset_counts(m, n, t, samples, make_stream(62))
    p = {k: c / samples for k, c in tp.items()}
    q = {k: c / samples for k, c in gr1.items()}
    n_outcomes = len(set(p) | set(q))
    noise = math.sqrt(n_outcomes * (1 / samples + 1 / samples))
    assert tv_distance(p, q) <= 3 * noise


def test_min_degree_one_degree_histogram_matches_truncated_pmf():
    # limiting left-degree law of the min-degree-1 ensemble at mean 2,
    # sampled through the configuration model at m = n = 10^4, t = 2*10^4
    m = n = 10_000
    t = 20_000
    g = sample_tp(m, n, t, make_stream(71))
    left, _ = degrees(g)
    params = solve_rate(2.0)
    kmax = 8
    observed = np.bincount(np.minimum(left, kmax), minlength=kmax + 1)[1:]
    expected = pmf(params, np.arange(1, kmax + 1))
    expected[-1] = 1.0 - expected[:-1].sum()
    result = stats.chisquare(observed, expected * m)
    assert result.pvalue >= 0.001


# ----------------------------------------------------------------------
# divide-and-conquer degree conditioning
# ----------------------------------------------------------------------


def _chi_square_pvalue(observed: np.ndarray, expected: np.ndarray) -> float:
    """Goodness of fit, with cells expected below 5 pooled into one."""
    small = expected < 5
    if small.any():
        observed = np.append(observed[~small], observed[small].sum())
        expected = np.append(expected[~small], expected[small].sum())
    return stats.chisquare(observed, expected).pvalue


@pytest.mark.parametrize("stray", [0.0, math.inf])
@pytest.mark.parametrize("leaf", [1, 2, generators._LEAF])
@pytest.mark.parametrize("count,total", [(5, 9), (6, 8), (7, 12)])
def test_conditioned_degrees_match_enumerated_law(monkeypatch, leaf, stray, count, total):
    # with the leaf at 1 or 2 every split of the recursion, and its per-row
    # targets, runs on a size whose conditional law can be listed in full;
    # rows restart at their own rate after every split (stray 0) or never.
    # At the default leaf each vector is one whole leaf
    monkeypatch.setattr(generators, "_LEAF", leaf)
    monkeypatch.setattr(generators, "_STRAY", stray)
    params = solve_rate(total / count)
    vectors = [
        tuple(np.diff((0, *cuts, total)).tolist())
        for cuts in itertools.combinations(range(1, total), count - 1)
    ]
    weights = np.array([np.prod(pmf(params, np.array(v))) for v in vectors])
    samples = 40_000
    budget = generators._Budget(count, total, 10**9)
    draws = generators._condition(samples, count, total, [make_stream(91)], [budget])[0]
    index = {v: i for i, v in enumerate(vectors)}
    observed = np.bincount([index[tuple(row)] for row in draws.tolist()], minlength=len(vectors))
    assert _chi_square_pvalue(observed, samples * weights / weights.sum()) >= 0.001


@pytest.mark.parametrize("leaf", [1, 2])
def test_tp_multiset_counts_recursion_matches_exhaustive_census(monkeypatch, leaf):
    monkeypatch.setattr(generators, "_LEAF", leaf)
    census = exhaustive_census(2, 3, 4)
    samples = 100_000
    counts = tp_multiset_counts(2, 3, 4, samples, make_stream(92))
    assert set(counts) <= set(census.outcome_frequencies)
    keys = sorted(census.outcome_frequencies)
    observed = np.array([counts.get(k, 0) for k in keys])
    exact = np.array([census.outcome_frequencies[k] for k in keys]) / census.valid_count
    expected = exact * samples
    assert _chi_square_pvalue(observed, expected) >= 0.001


def test_tp_recursion_left_degrees_match_gr1(monkeypatch):
    # a moderate size against the reference rejection sampler, which
    # accepts about 61% of its draws here
    monkeypatch.setattr(generators, "_LEAF", 2)
    m = n = 100
    t = 600
    reps = 300
    kmax = 14
    hist = np.zeros((2, kmax), dtype=np.int64)
    for i in range(reps):
        for row, g in enumerate(
            (sample_tp(m, n, t, split_stream(93, i)), sample_gr1(m, n, t, split_stream(94, i)))
        ):
            left, _ = degrees(g)
            hist[row] += np.bincount(np.minimum(left, kmax), minlength=kmax + 1)[1:]
    assert hist.sum() == 2 * reps * m
    assert stats.chi2_contingency(hist[:, hist.min(axis=0) >= 5]).pvalue >= 0.001


def test_conditioning_requests_stay_linear_in_count(monkeypatch):
    # the whole-vector rejection asked for 525,000,000 values in one call
    # at this size (3.9 GiB); a split draws at most half a side, a leaf at
    # most 4096 candidates of at most _LEAF values
    requests = []
    real = generators.sample_truncated

    def spy(params, rng, size=None):
        requests.append(1 if size is None else int(size))
        return real(params, rng, size)

    monkeypatch.setattr(generators, "sample_truncated", spy)
    n = 10**6
    t = 1_930_000
    g = sample_tp(n, n, t, make_stream(1))
    left, right = degrees(g)
    assert requests[0] == n // 2  # the spy sees the first prefix batch
    assert max(requests) <= n
    assert g.t == t
    assert left.min() >= 1 and right.min() >= 1
    assert left.sum() == t and right.sum() == t


@pytest.mark.parametrize("m,n,t", [(2, 3, 3_000_000), (5, 5, 10**6)])
def test_large_means_keep_leaf_tables_near_the_mode(monkeypatch, m, n, t):
    # above rate 30 the leaf draws Poisson values: its accept table spans a
    # window of tens of sd around the mode, not the support from 1 (with a
    # table that long this sample_tp(2, 3, 3_000_000) took 0.76 s, not 0.13 s)
    tables = []
    real = generators._pmf_ratios

    def spy(rate):
        tables.append((rate, real(rate)))
        return tables[-1][1]

    monkeypatch.setattr(generators, "_pmf_ratios", spy)
    g = sample_tp(m, n, t, make_stream(5))
    left, right = degrees(g)
    assert g.t == t and left.sum() == t and right.sum() == t
    assert left.min() >= 1 and right.min() >= 1
    assert {rate for rate, _ in tables} == {solve_rate(t / m).rate, solve_rate(t / n).rate}
    for rate, (first, ratio, _) in tables:
        assert rate > 30 and first > 0 and ratio.size < 30 * math.sqrt(rate)


def test_strayed_targets_start_afresh(monkeypatch):
    # deep in the recursion a row's remaining total can sit far in the tail
    # of its sum law, where a level kept at the first rate redraws its prefix
    # thousands of times; a fresh start at the row's own rate keeps every
    # level near its usual acceptance, so no level redraws 150 times
    draws = []
    real = generators.sample_truncated

    def spy(params, rng, size=None):
        draws.append((params.rate, size))
        return real(params, rng, size)

    monkeypatch.setattr(generators, "sample_truncated", spy)
    for i in range(1000):
        draws.clear()
        budget = generators._Budget(2000, 8294, 10**6)
        generators._condition(1, 2000, 8294, [split_stream(96, i)], [budget])
        assert draws[0][1] == 1000  # the spy sees the first prefix batch
        runs = [len(list(run)) for _, run in itertools.groupby(draws)]
        assert max(runs) <= 150


def _surjections(k: int, lo: int, hi: int) -> list[int]:
    """Surj(s, k), the surjections of s labeled balls onto k labeled boxes,
    for s = lo..hi (lo >= 1): :func:`surjection_count`'s inclusion-exclusion,
    each power (k - j)^s one multiplication on from the last."""
    bases = np.array(range(k, 0, -1), dtype=object)
    terms = np.array([(-1) ** j * math.comb(k, j) * (k - j) ** lo for j in range(k)], dtype=object)
    out = []
    for _ in range(lo, hi + 1):
        out.append(terms.sum())
        terms *= bases
    return out


def _partial_sum_law(h: int, count: int, total: int) -> tuple[np.ndarray, np.ndarray]:
    """``(s, p)``: P(S_h = s | S_count = total) over its support s = h ..
    total - (count - h), where S_k sums k iid truncated-Poisson degrees. It
    is C(total, s) Surj(s, h) Surj(total - s, count - h) / Surj(total, count)
    whatever the rate: the degrees given their sum are the box sizes of
    ``total`` balls thrown onto ``count`` boxes, no box empty."""
    lo, hi = h, total - (count - h)
    first = _surjections(h, lo, hi)
    rest = _surjections(count - h, total - hi, total - lo)[::-1]
    whole = surjection_count(total, count)
    law = [math.comb(total, s) * a * b / whole for s, a, b in zip(range(lo, hi + 1), first, rest)]
    return np.arange(lo, hi + 1), np.array(law)


def _law_gate_samples(shape: str) -> tuple[int, np.ndarray]:
    """``(total, degrees)`` for one shape of the partial-sum law gate, one
    conditioned degree vector a row."""
    if shape == "split":
        # prefixes of 150, 75 and 37 coordinates, then leaves of 38; strayed
        # rows restart
        budget = generators._Budget(300, 600, 10**6 * 20_000)
        return 600, generators._condition(20_000, 300, 600, [make_stream(2026)], [budget])[0]
    if shape == "leaf":
        # one stream's many-vector leaf at rate 50, above the inverse CDF
        budget = generators._Budget(40, 2000, 10**6 * 20_000)
        return 2000, generators._condition(20_000, 40, 2000, [make_stream(2027)], [budget])[0]
    if shape == "halves":
        # one stream's many-vector block of exact halving at rate 1.2
        return 67, generators._halved_vectors(20_000, 38, 67, [make_stream(2029)])[0]
    # degrees of lock-step streams, one graph each: the left side (100) splits
    # at 50, the right side (40, at rate 6.5) is halved
    m, n, streams = 100, 40, 300 if shape == "lock-step" else 1000
    seed, side, count = (2028, 0, m) if shape == "lock-step" else (2030, 1, n)
    edges = generators.sample_tp_edges(m, n, 260, [split_stream(seed, i) for i in range(streams)])
    owners = edges[:, :, side] + count * np.arange(streams)[:, None]
    return 260, np.bincount(owners.ravel(), minlength=count * streams).reshape(streams, count)


# Five shapes check 3 + 2 + 3 + 2 + 2 sums, each by its mean and by
# chi-square: 24 checks at 10^-3 / 16 each, a total level of 1.5 * 10^-3
_LAW_GATE_LEVEL = 1e-3 / 16


@pytest.mark.parametrize("shape", ["split", "leaf", "lock-step", "halves", "halves-lock-step"])
def test_conditioned_partial_sums_match_exact_law(shape):
    # sums of the first half, of all but the last and of the first 64
    # coordinates at real sizes: FFT sum laws past 64 coordinates, strayed
    # restarts at the real _LEAF and _STRAY, ratio windows above rate 30,
    # many-vector leaf batches, exact halving and lock-step streams, against
    # the exact law
    total, degrees = _law_gate_samples(shape)
    samples, count = degrees.shape
    assert degrees.min() >= 1 and (degrees.sum(axis=1) == total).all()
    for h in sorted({count // 2, count - 1, min(64, count - 1)}):
        support, law = _partial_sum_law(h, count, total)
        assert abs(law.sum() - 1.0) < 1e-12
        sums = degrees[:, :h].sum(axis=1)
        sd = math.sqrt(law @ support**2 - (h * total / count) ** 2)
        z = (sums.mean() - h * total / count) / (sd / math.sqrt(samples))
        assert math.erfc(abs(z) / math.sqrt(2)) >= _LAW_GATE_LEVEL, (h, z)
        observed = np.bincount(sums - support[0], minlength=support.size)
        assert _chi_square_pvalue(observed, samples * law) >= _LAW_GATE_LEVEL, h


def test_conditioning_budget_failure_is_informative(monkeypatch):
    monkeypatch.setattr(generators, "DEFAULT_MAX_ATTEMPTS", 1)
    with pytest.raises(AttemptsExhausted) as err:
        sample_tp(2000, 2000, 2600, make_stream(0))
    message = str(err.value)
    for field in ("count=2000", "total=2600", "attempts=", "observed acceptance", "predicted"):
        assert field in message


# ----------------------------------------------------------------------
# lock-step streams
# ----------------------------------------------------------------------

# the five genome fixtures' sizes, then a rate above the inverse-CDF range,
# two forced sides and a side longer than _LEAF
TP_STREAM_SIZES = [
    (22, 27, 44),
    (22, 21, 28),
    (22, 19, 32),
    (22, 38, 67),
    (20, 22, 38),
    (3, 2, 200),
    (1, 5, 5),
    (2, 40, 40),
    (65, 30, 100),
]


@pytest.mark.parametrize("m,n,t", TP_STREAM_SIZES)
def test_tp_edges_per_stream_match_sample_tp(m, n, t):
    streams = 40
    edges = generators.sample_tp_edges(m, n, t, [split_stream(95, i) for i in range(streams)])
    assert edges.shape == (streams, t, 2)
    for i in range(streams):
        assert np.array_equal(edges[i], sample_tp(m, n, t, split_stream(95, i)).edges)


@pytest.fixture
def leaf_batches(monkeypatch):
    """The keep uniforms each stream asks for in every round, in call order:
    one per candidate, so on a side of at most ``_LEAF`` coordinates the
    first size is the leaf's batch."""
    batches = []
    real = generators.stream_uniforms

    def spy(rngs, size):
        batches.append(size)
        return real(rngs, size)

    monkeypatch.setattr(generators, "stream_uniforms", spy)
    return batches


def test_lock_step_rounds_draw_one_count_per_stream(monkeypatch):
    # a block is one graph per stream or many graphs on one stream, so every
    # open stream draws as many candidates as every other in a round, and
    # the draw helpers are asked for one int, never per-stream sizes; the
    # runs cover prefixes and leaves, below and above rate 30
    sizes = []
    for name in ("stream_uniforms", "_draws"):

        def spy(*args, real=getattr(generators, name)):
            sizes.append(args[-1])
            return real(*args)

        monkeypatch.setattr(generators, name, spy)
    for m, n, t in [(65, 30, 100), (3, 70, 3000)]:
        generators.sample_tp_edges(m, n, t, [split_stream(99, i) for i in range(16)])
    generators.tp_multiset_counts(70, 2, 140, 50, make_stream(99))
    assert sizes and all(type(size) is int for size in sizes)


def _leaf_replay(count, total, vectors, rng, batch):
    """The first ``vectors`` candidates a leaf keeps on ``rng``, drawn
    ``batch`` a round: count - 1 draws each, then one keep uniform each. The
    last coordinate is what is left of ``total``, and a candidate is kept with
    probability pmf(last) / max pmf, which is 0 for a last coordinate below 1."""
    params = solve_rate(total / count)
    peak = pmf(params, np.arange(1, math.ceil(params.rate) + 2)).max()
    rows = []
    while len(rows) < vectors:
        draws = generators.sample_truncated(params, rng, batch * (count - 1))
        draws = draws.reshape(batch, count - 1)
        u = rng.random(batch)
        last = total - draws.sum(axis=1)
        keep = u < pmf(params, np.maximum(last, 0)) / peak
        rows += np.column_stack([draws, last])[keep].tolist()
    return np.array(rows[:vectors])


@pytest.mark.parametrize("m,n,t", [(20, 22, 700), (3, 2, 200)])
def test_tp_edges_keep_each_streams_first_hit(leaf_batches, m, n, t):
    # each stream's left degrees are the first candidate it keeps, drawing
    # alone in rounds of the left leaf's batch; above rate 30 a short side is
    # still conditioned by rejection
    streams = 40
    edges = generators.sample_tp_edges(m, n, t, [split_stream(98, i) for i in range(streams)])
    batch = leaf_batches[0]  # the left side is conditioned first
    for i in range(streams):
        first = _leaf_replay(m, t, 1, split_stream(98, i), batch)[0]
        assert np.array_equal(np.bincount(edges[i, :, 0], minlength=m), first)


@lru_cache(maxsize=None)
def _split_law_cdf(h: int, count: int, total: int) -> np.ndarray:
    return np.cumsum(_partial_sum_law(h, count, total)[1])


def _halving_replay(count: int, total: int, rng: np.random.Generator) -> np.ndarray:
    """The degrees exact halving gives on ``rng`` alone, from the big-int
    law: ``count - 1`` uniforms, split k (level by level, left to right)
    reading the k-th. A segment of c coordinates with total T splits at
    c // 2; its left half's sum is the inverse CDF of the exact law of the
    sum of its first c // 2 coordinates at the uniform, and its right half
    gets the rest."""
    u = iter(rng.random(count - 1).tolist())
    level = [(count, total)]
    while len(level) < count:
        nxt = []
        for c, rest in level:
            if c == 1:
                nxt.append((1, rest))
                continue
            h = c // 2
            cdf = _split_law_cdf(h, c, rest)
            s = h + min(int(np.searchsorted(cdf, next(u), side="right")), cdf.size - 1)
            nxt += [(h, s), (c - h, rest - s)]
        level = nxt
    return np.array([rest for _, rest in level])


@pytest.mark.parametrize("m,n,t", [(22, 38, 67), (20, 22, 38)])
def test_tp_edges_halve_each_streams_uniforms(m, n, t):
    # short sides at rate <= 30 are conditioned by exact halving: each stream
    # of a lock-step block draws its left side's m - 1 uniforms, then its
    # right side's n - 1, then shuffles its right stubs, as it would alone
    streams = 40
    edges = generators.sample_tp_edges(m, n, t, [split_stream(98, i) for i in range(streams)])
    for i in range(streams):
        rng = split_stream(98, i)
        left, right = _halving_replay(m, t, rng), _halving_replay(n, t, rng)
        stubs = np.repeat(np.arange(n), right)
        rng.shuffle(stubs)
        assert np.array_equal(edges[i, :, 0], np.repeat(np.arange(m), left))
        assert np.array_equal(edges[i, :, 1], stubs)


def test_short_sides_charge_no_budget(monkeypatch):
    # a side of at most _LEAF vertices at rate <= 30 draws no candidates, so
    # no budget is made for it; a longer side, or one above rate 30, rejects
    # and gets one budget per stream
    made = []
    budget = generators._Budget

    def spy(count, total, limit):
        made.append(count)
        return budget(count, total, limit)

    monkeypatch.setattr(generators, "_Budget", spy)
    rngs = [split_stream(90, i) for i in range(3)]
    for m, n, t in [(22, 38, 67), (70, 30, 150), (3, 2, 200), (1, 5, 5)]:
        made.clear()
        generators.sample_tp_edges(m, n, t, rngs)
        rejects = [c for c in (m, n) if c > generators._LEAF or t / c > 30 or c == t]
        assert made == [c for c in rejects for _ in rngs]


def test_halved_block_matches_each_stream_alone():
    # any block of streams and vectors: each stream draws its vectors'
    # uniforms in one call, exactly as alone
    count, total, vectors = 22, 44, 3
    rngs = [split_stream(89, i) for i in range(5)]
    block = generators._halved_vectors(vectors, count, total, rngs)
    assert block.shape == (5, vectors, count) and block.dtype == np.int64
    assert (block.sum(axis=2) == total).all() and block.min() >= 1
    for i in range(5):
        alone = generators._halved_vectors(vectors, count, total, [split_stream(89, i)])
        assert np.array_equal(block[i], alone[0])
        rng = split_stream(89, i)
        for v in range(vectors):
            assert np.array_equal(block[i, v], _halving_replay(count, total, rng))



def _reference_plan(count: int) -> list:
    """Exact halving's levels as index lists, from the segment lengths of
    each level: per level its width, the columns of its one-coordinate
    segments before and after, and per split shape (h, j), in the order the
    shapes first occur, the columns of the split segments, the numbers of
    their uniforms (level by level, left to right) and the columns of their
    halves."""
    levels, lengths, split = [], [count], 0
    while len(lengths) < count:
        halves = [[c] if c == 1 else [c // 2, c - c // 2] for c in lengths]
        starts = np.cumsum([0] + [len(part) for part in halves])
        kept = [col for col, c in enumerate(lengths) if c == 1]
        shapes: dict = {}
        for col, c in enumerate(lengths):
            if c > 1:
                parts = shapes.setdefault((c // 2, c - c // 2), ([], [], [], []))
                for part, value in zip(parts, (col, split, starts[col], starts[col] + 1)):
                    part.append(int(value))
                split += 1
        lengths = [c for part in halves for c in part]
        levels.append(
            (len(lengths), kept, [int(starts[col]) for col in kept],
             [(h, j, *parts) for (h, j), parts in shapes.items()])
        )
    return levels


@pytest.mark.parametrize("count", range(1, 65))
def test_halving_plan_slices_select_the_reference_columns(count):
    # every column set of the plan, a slice or an index array, selects
    # exactly the reference plan's columns, in order, so a plan edit cannot
    # silently reorder a split; a power of two is sliced throughout
    columns = np.arange(count)
    plan = generators._halving_plan(count)
    reference = _reference_plan(count)
    assert len(plan) == len(reference)
    for (width, kept, to, shapes), (ref_width, *ref_sets, ref_shapes) in zip(plan, reference):
        assert width == ref_width
        assert [(h, j) for h, j, *_ in shapes] == [(h, j) for h, j, *_ in ref_shapes]
        sets = [kept, to] + [part for _, _, *parts in shapes for part in parts]
        ref_sets += [part for _, _, *parts in ref_shapes for part in parts]
        for index, ref in zip(sets, ref_sets, strict=True):
            assert columns[index].tolist() == ref
            if count & (count - 1) == 0:
                assert isinstance(index, slice)


@pytest.mark.parametrize("where", ["least", "middle", "greatest"])
def test_first_level_lookup_matches_left_sums(where):
    # the first level reads its left sums from the side's own row, with no
    # lift; on every first-level shape, at the least, middle and greatest
    # total a halved side has (rate <= 30), it must agree with the lifted
    # lookup at u = 0, at u 2^53 = k - 1 and k for each key k of the row,
    # and at u = 1 - 2^-53, where a changed compare would show
    unit = generators._UNIT
    for count in range(2, 65):
        h, j = count // 2, count - count // 2
        most = 30 * count
        assert solve_rate(most / count).rate <= 30 < solve_rate((most + 1) / count).rate
        total = {"least": count + 1, "middle": (count + 1 + most) // 2, "greatest": most}[where]
        keys, _ = generators._split_keys(h, j, total)
        draws = np.concatenate([[0], keys - 1, keys, [unit - 1]]).astype(np.uint64)
        lifted = generators._left_sums(h, j, np.full(draws.size, total), draws)
        assert np.array_equal(generators._row_left_sums(h, j, total, draws), lifted)

@pytest.mark.parametrize("count,total", [(60, 900), (64, 1900)])
def test_split_rows_are_finite_on_the_longest_short_sides(count, total):
    # every split shape of the longest halved sides, at the least, middle and
    # greatest total a segment can have: no NaN and no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _, _, _, shapes in generators._halving_plan(count):
            for h, j, *_ in shapes:
                least, most = h + j, total - (count - h - j)
                for segment in (least, (least + most) // 2, most):
                    cdf = distributions._split_cdf(h, j, segment)
                    assert np.isfinite(cdf).all() and cdf[-1] == 1.0
                    assert cdf[0] >= 0.0 and (np.diff(cdf) >= 0.0).all()
        block = generators._halved_vectors(200, count, total, [make_stream(88)])
    assert (block.sum(axis=2) == total).all() and block.min() >= 1


def test_sample_tp_draws_are_pinned():
    # replicate i of a seed must keep giving the same graph: the sha256 of
    # these edges has not changed since short sides were halved exactly
    digest = hashlib.sha256()
    for m, n, t in TP_STREAM_SIZES:
        for i in range(8):
            digest.update(sample_tp(m, n, t, split_stream(2024, i)).edges.tobytes())
    assert digest.hexdigest() == (
        "866a03637b24f5ba51c9a07a1402ff7a70ffe851db1f41ec5258dce1d1f27848"
    )


def test_tp_edges_budget_failure_is_informative(monkeypatch):
    # both sides are above rate 30, so both are conditioned by rejection
    monkeypatch.setattr(generators, "DEFAULT_MAX_ATTEMPTS", 1)
    rngs = [split_stream(97, i) for i in range(16)]
    with pytest.raises(AttemptsExhausted) as err:
        generators.sample_tp_edges(30, 30, 1000, rngs)
    message = str(err.value)
    for field in ("budget of 1 ", "count=30", "total=1000", "observed acceptance", "predicted"):
        assert field in message


# (vectors, count, total): short sides at a few rates, and two longer than
# _LEAF, which split in lock-step, one of them above the inverse-CDF range
CONDITION_SIZES = [(5, 22, 44), (40, 3, 7), (12, 30, 60), (3, 70, 150), (2, 70, 3000)]


def _condition_alone(vectors, count, total, seed, i, limit):
    budget = generators._Budget(count, total, limit)
    return generators._condition(vectors, count, total, [split_stream(seed, i)], [budget])[0]


def _block_shapes(streams, vectors, count):
    """The (streams, vectors) blocks a case runs as. Above _LEAF a block is
    many streams of one vector (sample_tp_edges) or one stream of many
    (tp_multiset_counts); a leaf takes many of both."""
    if vectors == 1 or count <= generators._LEAF:
        return [(streams, vectors)]
    return [(streams, 1), (1, vectors)]


@pytest.mark.parametrize("vectors,count,total", CONDITION_SIZES)
def test_lock_step_rows_match_one_stream_calls(leaf_batches, vectors, count, total):
    # several vectors per stream: each stream keeps its first hits in draw
    # order, exactly as when it runs alone
    for streams, k in _block_shapes(12, vectors, count):
        rngs = [split_stream(91, i) for i in range(streams)]
        budgets = [generators._Budget(count, total, 10**6) for _ in rngs]
        leaf_batches.clear()
        block = generators._condition(k, count, total, rngs, budgets)
        batches = list(leaf_batches)
        assert block.shape == (streams, k, count)
        assert (block.sum(axis=2) == total).all() and block.min() >= 1
        for i in range(streams):
            assert np.array_equal(block[i], _condition_alone(k, count, total, 91, i, 10**6))
            if count <= generators._LEAF:
                # a whole leaf: the stream keeps the first candidates it
                # would keep alone, drawn in rounds of the block's batch
                replay = _leaf_replay(count, total, k, split_stream(91, i), batches[0])
                assert np.array_equal(block[i], replay)


def test_leaf_block_matches_each_stream_alone():
    # 5 streams of 4 vectors at (30, 60) draw batches of 30 candidates, and
    # at this seed stream 3 needs a second batch that the others do not, so
    # the block's last round writes one stream's rows and leaves gaps
    params, count, target, vectors = solve_rate(2.0), 30, 60, 4
    rngs = [split_stream(91, i) for i in range(5)]
    budgets = [generators._Budget(count, target, 10**6) for _ in rngs]
    block = generators._leaf_vectors(params, count, target, vectors, rngs, budgets)
    assert block.shape == (5, vectors, count) and block.dtype == np.int64
    assert [b.drawn for b in budgets] == [30, 30, 30, 60, 30]
    for i in range(5):
        budget = generators._Budget(count, target, 10**6)
        alone = generators._leaf_vectors(
            params, count, target, vectors, [split_stream(91, i)], [budget]
        )
        assert np.array_equal(block[i], alone[0])
        assert vars(budgets[i]) == vars(budget)


@pytest.mark.parametrize("count", [1, 2, 255, 256, 300])
def test_stubs_match_plain_repeat(count):
    # the owners are repeated in a narrow dtype, which widens at count 256;
    # every row of degrees is a shuffle of one row, so they share one sum
    rng = np.random.default_rng(count)
    degrees = np.tile(rng.integers(0, 4, size=count), (3, 5, 1))
    rng.permuted(degrees, axis=-1, out=degrees)
    stubs = generators._stubs(degrees)
    expected = np.repeat(np.arange(degrees.size) % count, degrees.ravel()).astype(np.int64)
    assert stubs.dtype == np.int64
    assert stubs.shape[:-1] == (3, 5)
    assert np.array_equal(stubs.ravel(), expected)


@pytest.mark.parametrize("vectors", [1, 3])
@pytest.mark.parametrize("stray", [0.0, math.inf])
def test_lock_step_split_matches_one_stream_calls(monkeypatch, stray, vectors):
    # with the leaf at 2 every side splits over several levels and restarts
    # at the leaf (stray inf) or after every level (stray 0); each stream
    # must draw and spend exactly what it does alone
    monkeypatch.setattr(generators, "_LEAF", 2)
    monkeypatch.setattr(generators, "_STRAY", stray)
    count, total = 12, 30
    condition = generators._condition
    restarts = []

    def watch(vectors, count, total, rngs, budgets):
        restarts.append(vectors * len(rngs))
        return condition(vectors, count, total, rngs, budgets)

    for streams, k in _block_shapes(16, vectors, count):
        alone, alone_budgets = [], []
        for i in range(streams):
            budget = generators._Budget(count, total, 10**6)
            alone.append(condition(k, count, total, [split_stream(93, i)], [budget])[0])
            alone_budgets.append(vars(budget))
        monkeypatch.setattr(generators, "_condition", watch)
        rngs = [split_stream(93, i) for i in range(streams)]
        budgets = [generators._Budget(count, total, 10**6) for _ in rngs]
        block = condition(k, count, total, rngs, budgets)
        monkeypatch.setattr(generators, "_condition", condition)
        for i in range(streams):
            assert np.array_equal(block[i], alone[i])
            assert vars(budgets[i]) == alone_budgets[i]
    # every nested call is a restart on one target: some hold several rows
    assert max(restarts) >= 2


# at (8, 22, 44) several streams run out in the same round, with different
# numbers of hits, so only the first of them gives the block's message
@pytest.mark.parametrize(
    "vectors,count,total", [(3, 30, 60), (1, 22, 28), (2, 70, 150), (8, 22, 44)]
)
def test_lock_step_budgets_are_per_stream(vectors, count, total):
    # a block succeeds with budget B exactly when every stream succeeds alone
    # with B, and otherwise fails as the first stream that fails alone does
    outcomes = set()
    for streams, k in _block_shapes(16, vectors, count):
        for limit in (1, 2, 4, 8, 16, 32, 64, 128, 192, 256, 512, 10**6):
            alone = []
            for i in range(streams):
                try:
                    _condition_alone(k, count, total, 92, i, limit)
                    alone.append(None)
                except AttemptsExhausted as err:
                    alone.append(str(err))
            failed = [message for message in alone if message is not None]
            rngs = [split_stream(92, i) for i in range(streams)]
            budgets = [generators._Budget(count, total, limit) for _ in rngs]
            try:
                generators._condition(k, count, total, rngs, budgets)
                block = None
            except AttemptsExhausted as err:
                block = str(err)
            assert block == (failed[0] if failed else None)
            outcomes.add("all" if len(failed) == streams else "some" if failed else "none")
    assert {"none", "some"} <= outcomes


def test_budget_reports_the_first_exhausted_stream():
    # one stream's budget: a batch may overshoot the limit, the next one is
    # refused with this stream's numbers, and a refused batch charges nothing
    budget = generators._Budget(5, 9, 10)
    budget.spend(4, 0.5)
    budget.spend(6, 1.5)
    budget.accepted = 3
    with pytest.raises(AttemptsExhausted) as err:
        budget.spend(4, 0.5)
    assert "attempts=10, accepted=3, observed acceptance 0.3, predicted 0.2" in str(err.value)
    assert (budget.drawn, budget.accepted, budget.expected) == (10, 3, 2.0)
    short = generators._Budget(5, 9, 10)
    short.spend(8, 0.5)
    short.spend(4, 0.5)  # still within its limit when charged
    assert short.drawn == 12
    with pytest.raises(AttemptsExhausted, match="attempts=12, accepted=0,"):
        short.spend(1, 0.0)


@pytest.mark.parametrize("m,n,t", [(22, 30, 1000), (70, 30, 150)])
def test_tp_edges_budgets_are_per_stream(monkeypatch, m, n, t):
    # a block succeeds with budget B exactly when every stream's sample_tp
    # succeeds alone with B; otherwise it fails as the first stream that
    # fails alone on the left side does, or, if none does, on the right.
    # (22, 30, 1000) rejects on both sides, above rate 30; the right side of
    # (70, 30, 150) is halved, which spends no budget
    streams = 16
    outcomes = set()
    for limit in (1, 2, 4, 8, 16, 64, 128, 10**6):
        monkeypatch.setattr(generators, "DEFAULT_MAX_ATTEMPTS", limit)
        failed = []
        for i in range(streams):
            try:
                sample_tp(m, n, t, split_stream(99, i))
            except AttemptsExhausted as err:
                side = 0 if f"count={m}," in str(err) else 1
                failed.append((side, i, str(err)))
        rngs = [split_stream(99, i) for i in range(streams)]
        try:
            generators.sample_tp_edges(m, n, t, rngs)
            block = None
        except AttemptsExhausted as err:
            block = str(err)
        assert block == (min(failed)[2] if failed else None)
        outcomes.add("all" if len(failed) == streams else "some" if failed else "none")
    assert {"none", "some"} <= outcomes


@pytest.mark.parametrize("m,n,t", TP_STREAM_SIZES)
def test_tp_multiset_counts_of_one_sample_match_sample_tp(m, n, t):
    # the bulk sampler is the one-stream case of the same construction: one
    # sample on a stream is the multiset of sample_tp's graph on that stream
    for i in range(8):
        edges = sample_tp(m, n, t, split_stream(100, i)).edges
        codes = tuple(sorted((edges[:, 0] * n + edges[:, 1]).tolist()))
        assert tp_multiset_counts(m, n, t, 1, split_stream(100, i)) == {codes: 1}


def test_tp_multiset_counts_budget_is_per_sample(monkeypatch):
    # each side may draw DEFAULT_MAX_ATTEMPTS candidate vectors per sample
    monkeypatch.setattr(generators, "DEFAULT_MAX_ATTEMPTS", 1)
    with pytest.raises(AttemptsExhausted, match="budget of 4 candidate vectors"):
        tp_multiset_counts(70, 30, 150, 4, make_stream(0))


def test_tp_multiset_counts_are_pinned():
    # many samples on one stream, at an enumerable size and with a side
    # longer than _LEAF: the sha256 of the counts has not changed since short
    # sides were halved exactly
    digests = [
        hashlib.sha256(repr(list(counts.items())).encode()).hexdigest()
        for counts in (
            tp_multiset_counts(2, 3, 4, 20_000, make_stream(2024)),
            tp_multiset_counts(3, 70, 75, 200, make_stream(2024)),
        )
    ]
    assert digests == [
        "fa692b2a95766b1f02be3dceeb1f6f068fc6457076c92dede7945eb587f3d245",
        "47bda1e9c7eb0f539cb450afdbea74763884d852ad9f76b0fbbe75fe412a81bc",
    ]


@pytest.mark.parametrize(
    "m,n,t,seed,expected",
    [
        (2, 2, 2, 1000, "d727e33e439c13d268c8365dc05db8fc6d0f8767d441a07a2f15321f4f6a229e"),
        (2, 2, 3, 1001, "c8c62e084c8551834f3da0fc7194ac01a53dae50fa78138313a03e6f4d629226"),
    ],
)
def test_verify_equivalence_tallies_are_pinned(m, n, t, seed, expected):
    # the two tallies that verify --seed 1000 makes, 100,000 samples each:
    # the sha256 of the counts must not change when the bulk path does
    counts = tp_multiset_counts(m, n, t, 100_000, make_stream(seed))
    assert hashlib.sha256(repr(list(counts.items())).encode()).hexdigest() == expected


# ----------------------------------------------------------------------
# independent-edge model
# ----------------------------------------------------------------------


def test_er_extremes(rng):
    assert sample_er(3, 4, 0.0, rng).t == 0
    full = sample_er(3, 4, 1.0, rng)
    assert full.t == 12
    with pytest.raises(InputError):
        sample_er(3, 4, 1.5, rng)


def test_er_params_for_published_instance():
    big_m, big_n, p = er_params_for(22, 27, 44)
    assert (big_m, big_n) == (28, 41)
    assert p == pytest.approx(0.0388, abs=2e-4)
    with pytest.raises(InputError):
        er_params_for(5, 5, 5)
    with pytest.raises(InputError):  # was a ZeroDivisionError
        er_params_for(0, 5, 10)


def test_er_non_isolated_left_mean(rng):
    big_m, big_n, p = er_params_for(22, 27, 44)
    expected = big_m * (1 - (1 - p) ** big_n)
    reps = 10_000
    values = np.empty(reps)
    for i in range(reps):
        g = sample_er(big_m, big_n, p, split_stream(83, i))
        values[i] = big_m - np.sum(np.bincount(g.edges[:, 0], minlength=big_m) == 0)
    se = values.std(ddof=1) / math.sqrt(reps)
    assert abs(values.mean() - expected) <= 3 * se


# ----------------------------------------------------------------------
# specs and determinism
# ----------------------------------------------------------------------


def test_model_spec_validation():
    with pytest.raises(InputError):
        ModelSpec(kind="bogus", m=2, n=2, t=2)
    with pytest.raises(InputError):
        ModelSpec(kind="tp", m=3, n=3, t=2)
    with pytest.raises(InputError):
        ModelSpec(kind="er", m=3, n=3, p=1.2)
    with pytest.raises(InputError):
        ModelSpec(kind="gr", m=3, n=3)
    # a model takes its own parameter only: t for gr, gr1 and tp, p for er
    with pytest.raises(InputError, match="takes t, not p"):
        ModelSpec(kind="gr", m=3, n=3, t=5, p=0.5)
    with pytest.raises(InputError, match="takes p, not t"):
        ModelSpec(kind="er", m=3, n=3, t=5, p=0.5)


@pytest.mark.parametrize(
    "spec",
    [
        ModelSpec(kind="gr", m=6, n=7, t=20, seed=5),
        ModelSpec(kind="gr1", m=4, n=4, t=9, seed=5),
        ModelSpec(kind="tp", m=8, n=6, t=16, seed=5),
        ModelSpec(kind="er", m=9, n=9, p=0.2, seed=5),
    ],
)
def test_identical_specs_reproduce_identical_graphs(spec):
    assert spec.sample() == spec.sample()
