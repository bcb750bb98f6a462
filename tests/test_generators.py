import hashlib
import itertools
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from oxgrid import generators
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
    with pytest.raises(InputError):
        sample_gr1(2, 2, 2, make_stream(0), max_attempts=0)


def test_gr1_forced_instance():
    g = sample_gr1(1, 1, 1, make_stream(5))
    assert g.edges.tolist() == [[0, 0]]


def test_gr1_always_covers():
    for i in range(20):
        g = sample_gr1(3, 5, 9, split_stream(23, i))
        assert min_degree(g) == (1, 1) or min(min_degree(g)) >= 1
        assert g.t == 9


def test_gr1_attempts_exhausted_reports_acceptance():
    # (6,6,6) accepts only permutation matchings: acceptance ~ 2.4e-4,
    # so a couple of attempts nearly surely fail
    with pytest.raises(AttemptsExhausted) as err:
        sample_gr1(6, 6, 6, make_stream(3), max_attempts=2)
    assert "acceptance" in str(err.value)


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
    gr1 = gr_multiset_counts(m, n, t, samples, make_stream(62), require_min_degree=True)
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
@pytest.mark.parametrize("leaf", [1, 2])
@pytest.mark.parametrize("count,total", [(5, 9), (6, 8), (7, 12)])
def test_conditioned_degrees_match_enumerated_law(monkeypatch, leaf, stray, count, total):
    # with the leaf at 1 or 2 every split of the recursion, and its per-row
    # targets, runs on a size whose conditional law can be listed in full;
    # rows restart at their own rate after every split (stray 0) or never
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
    assert max(requests) <= n
    assert g.t == t
    assert left.min() >= 1 and right.min() >= 1
    assert left.sum() == t and right.sum() == t


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
        runs = [len(list(run)) for _, run in itertools.groupby(draws)]
        assert max(runs) <= 150


def test_conditioning_budget_failure_is_informative():
    with pytest.raises(AttemptsExhausted) as err:
        sample_tp(2000, 2000, 2600, make_stream(0), max_attempts=1)
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


@pytest.mark.parametrize("m,n,t", [(22, 38, 67), (20, 22, 38)])
def test_tp_edges_keep_each_streams_first_hit(m, n, t):
    # below rate 30 a stream's candidate left-degree vectors are consecutive
    # rows of one long run of its draws, so the left degrees must be the
    # first row of that run whose sum is t
    streams = 40
    edges = generators.sample_tp_edges(m, n, t, [split_stream(98, i) for i in range(streams)])
    params = solve_rate(t / m)
    for i in range(streams):
        rows = generators.sample_truncated(params, split_stream(98, i), 20_000 * m).reshape(-1, m)
        first = rows[rows.sum(axis=1) == t][0]
        assert np.array_equal(np.bincount(edges[i, :, 0], minlength=m), first)


def test_sample_tp_draws_are_pinned():
    # replicate i of a seed must keep giving the same graph: the sha256 of
    # these edges has not changed since the conditioning became exact
    digest = hashlib.sha256()
    for m, n, t in TP_STREAM_SIZES:
        for i in range(8):
            digest.update(sample_tp(m, n, t, split_stream(2024, i)).edges.tobytes())
    assert digest.hexdigest() == (
        "5855ed006c0c6d61ebc525885d847739ca4ab850dd57cc2fd95b2facbd981bf7"
    )


def test_tp_rejects_an_empty_budget():
    # a budget of 0 used to fail with ZeroDivisionError in the message
    for max_attempts in (0, -1):
        with pytest.raises(InputError):
            sample_tp(30, 30, 60, make_stream(0), max_attempts=max_attempts)
        with pytest.raises(InputError):
            generators.sample_tp_edges(3, 3, 3, [make_stream(0)], max_attempts=max_attempts)


def test_tp_edges_budget_failure_is_informative():
    rngs = [split_stream(97, i) for i in range(16)]
    with pytest.raises(AttemptsExhausted) as err:
        generators.sample_tp_edges(30, 30, 60, rngs, max_attempts=1)
    message = str(err.value)
    for field in ("budget of 1 ", "count=30", "total=60", "observed acceptance", "predicted"):
        assert field in message


# (vectors, count, total): short sides at a few rates, and one longer than
# _LEAF, which conditions stream by stream, each on its own budget
CONDITION_SIZES = [(5, 22, 44), (40, 3, 7), (12, 30, 60), (3, 70, 150)]


def _condition_alone(vectors, count, total, seed, i, max_attempts):
    budget = generators._Budget(count, total, max_attempts)
    return generators._condition(vectors, count, total, [split_stream(seed, i)], [budget])[0]


@pytest.mark.parametrize("vectors,count,total", CONDITION_SIZES)
def test_lock_step_rows_match_one_stream_calls(vectors, count, total):
    # several vectors per stream: each stream keeps its first hits in draw
    # order, exactly as when it runs alone
    streams = 12
    rngs = [split_stream(91, i) for i in range(streams)]
    budgets = [generators._Budget(count, total, 10**6) for _ in rngs]
    block = generators._condition(vectors, count, total, rngs, budgets)
    assert block.shape == (streams, vectors, count)
    assert (block.sum(axis=2) == total).all() and block.min() >= 1
    for i in range(streams):
        assert np.array_equal(block[i], _condition_alone(vectors, count, total, 91, i, 10**6))
        if count <= generators._LEAF:
            # below rate 30 a stream's candidates are consecutive rows of one
            # run of its draws, and it keeps the first rows that hit
            params = solve_rate(total / count)
            rows = generators.sample_truncated(params, split_stream(91, i), 4000 * count)
            rows = rows.reshape(-1, count)
            assert np.array_equal(block[i], rows[rows.sum(axis=1) == total][:vectors])


# at (8, 22, 44) several streams run out in the same round, with different
# numbers of hits, so only the first of them gives the block's message
@pytest.mark.parametrize(
    "vectors,count,total", [(3, 30, 60), (1, 22, 28), (2, 70, 150), (8, 22, 44)]
)
def test_lock_step_budgets_are_per_stream(vectors, count, total):
    # a block succeeds with budget B exactly when every stream succeeds alone
    # with B, and otherwise fails as the first stream that fails alone does
    streams = 16
    outcomes = set()
    for limit in (1, 8, 64, 128, 192, 256, 512, 10**6):
        alone = []
        for i in range(streams):
            try:
                _condition_alone(vectors, count, total, 92, i, limit)
                alone.append(None)
            except AttemptsExhausted as err:
                alone.append(str(err))
        failed = [message for message in alone if message is not None]
        rngs = [split_stream(92, i) for i in range(streams)]
        budgets = [generators._Budget(count, total, limit) for _ in rngs]
        try:
            generators._condition(vectors, count, total, rngs, budgets)
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


@pytest.mark.parametrize("m,n,t", [(22, 30, 60), (70, 30, 150)])
def test_tp_edges_budgets_are_per_stream(m, n, t):
    # a block succeeds with budget B exactly when every stream's sample_tp
    # succeeds alone with B; otherwise it fails as the first stream that
    # fails alone on the left side does, or, if none does, on the right
    streams = 16
    outcomes = set()
    for limit in (1, 16, 64, 128, 10**6):
        failed = []
        for i in range(streams):
            try:
                sample_tp(m, n, t, split_stream(99, i), max_attempts=limit)
            except AttemptsExhausted as err:
                side = 0 if f"count={m}," in str(err) else 1
                failed.append((side, i, str(err)))
        rngs = [split_stream(99, i) for i in range(streams)]
        try:
            generators.sample_tp_edges(m, n, t, rngs, max_attempts=limit)
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


def test_tp_multiset_counts_are_pinned():
    # many samples on one stream, at an enumerable size and with a side
    # longer than _LEAF: the sha256 of the counts has not changed since the
    # bulk sampler became the many-vector case of sample_tp_edges
    digests = [
        hashlib.sha256(repr(list(counts.items())).encode()).hexdigest()
        for counts in (
            tp_multiset_counts(2, 3, 4, 20_000, make_stream(2024)),
            tp_multiset_counts(3, 70, 75, 200, make_stream(2024)),
        )
    ]
    assert digests == [
        "fe2e79347a6a26f3d6482033473557d81843ff0fcb73bfb4394da5434c702628",
        "c5893b9107a4d44dc8c18d3a915076d14eddcce1f5a1fea36d2274a0fff856f8",
    ]


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
