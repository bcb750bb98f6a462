import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from oxgrid import distributions
from oxgrid.distributions import (
    TruncatedPoissonParams,
    implied_mean,
    implied_variance,
    pmf,
    pmf_table,
    sample_truncated,
    size_biased_pmf,
    solve_rate,
    tail_bounds,
)
from oxgrid.errors import DomainError, InputError
from oxgrid.ingest import fixture_names, load_fixture
from oxgrid.rng import make_stream


# ----------------------------------------------------------------------
# rate solve
# ----------------------------------------------------------------------


def test_solve_rate_published_values():
    # desk values: the rates behind the lemur and dog mean degrees
    assert solve_rate(38 / 20).rate == pytest.approx(1.458, abs=1e-3)
    assert solve_rate(67 / 22).rate == pytest.approx(2.873, abs=1e-3)


def test_solve_rate_small_mean_expansion():
    # f(a) ~ 1 + a/2 near zero, so mean 1.0001 needs a ~ 2e-4
    assert solve_rate(1.0001).rate == pytest.approx(2e-4, rel=1e-3)


def test_solve_rate_domain():
    with pytest.raises(DomainError):
        solve_rate(1.0)
    with pytest.raises(DomainError):
        solve_rate(0.3)
    with pytest.raises(InputError):
        solve_rate(float("nan"))
    with pytest.raises(InputError):
        solve_rate(float("inf"))


@pytest.mark.parametrize("mean", [1 + 1e-10, 1.01, 1.5, 2.0, 5.0, 20.0, 1e3, 1e6])
def test_solve_rate_is_verified_inverse(mean):
    params = solve_rate(mean)
    assert abs(implied_mean(params.rate) - mean) <= 1e-10 * mean
    assert params.mean > 1.0
    assert params.variance > 0.0
    assert params.mean == pytest.approx(params.rate / -math.expm1(-params.rate), rel=1e-10)


@pytest.mark.parametrize("mean", [np.array(3.0), [3.0]], ids=["0-d-array", "list"])
def test_solve_rate_rejects_non_numbers_before_its_cache(mean):
    # the cache would raise TypeError on the unhashable list
    with pytest.raises(InputError):
        solve_rate(mean)


def test_solve_rate_is_cached_and_equal_to_a_fresh_solve():
    assert solve_rate(67 / 22) is solve_rate(67 / 22)
    assert solve_rate(67 / 22) == distributions._solve_rate.__wrapped__(67 / 22)
    assert solve_rate(3) == solve_rate(3.0)


def test_params_from_rate():
    p = TruncatedPoissonParams.from_rate(1.5)
    assert p.mean == pytest.approx(1.9308253751833022, rel=1e-12)
    assert p.variance == pytest.approx(implied_variance(1.5))


# ----------------------------------------------------------------------
# pmf and size biasing
# ----------------------------------------------------------------------


def test_pmf_zero_and_point_values():
    p = TruncatedPoissonParams.from_rate(1.0)
    assert pmf(p, 0) == 0.0
    assert pmf(p, 1) == pytest.approx(math.exp(-1) / -math.expm1(-1), rel=1e-14)


@pytest.mark.parametrize("rate", [0.5, 1.5, 2.0, 3.0, 10.0])
def test_pmf_normalizes(rate):
    p = TruncatedPoissonParams.from_rate(rate)
    kmax = int(20 + 10 * rate)
    total = pmf(p, np.arange(kmax + 1)).sum()
    assert abs(total - 1.0) <= 1e-12


def test_pmf_matches_table():
    p = TruncatedPoissonParams.from_rate(2.0)
    table = pmf_table(p)
    assert np.allclose(table, pmf(p, np.arange(1, table.size + 1)), rtol=1e-12)


@pytest.mark.parametrize("rate", [800.0, 2000.0])
def test_pmf_table_where_e_to_the_minus_rate_is_not_a_normal_double(rate):
    # the recurrence would start at e^-rate, below the smallest normal
    # double here; the table is the log-space pmf, and it sums to 1
    p = TruncatedPoissonParams.from_rate(rate)
    table = pmf_table(p)
    k = np.arange(1, table.size + 1)
    assert np.array_equal(table, pmf(p, k))
    assert abs(table.sum() - 1.0) <= 1e-10
    assert abs((k * table).sum() - p.mean) <= 1e-9 * p.mean
    # the leading terms underflow to 0; past them every entry moves the
    # running sum, and the next term would not
    cum = np.cumsum(table)
    assert (np.diff(cum[cum > 0]) > 0).all()
    following = pmf(p, table.size + 1)
    assert cum[-1] + following == cum[-1] or 1.0 - cum[-1] < 1e-17


def test_pmf_table_recurrence_agrees_with_the_log_space_pmf_up_to_the_switch():
    p = TruncatedPoissonParams.from_rate(708.0)
    table = pmf_table(p)
    assert abs(table.sum() - 1.0) <= 1e-10
    assert np.allclose(table, pmf(p, np.arange(1, table.size + 1)), rtol=1e-9, atol=1e-300)


def test_pmf_and_size_biased_pmf_take_0d_arrays():
    p = TruncatedPoissonParams.from_rate(1.5)
    for k in (0, 3):
        assert pmf(p, np.array(k)) == pmf(p, k) == pmf(p, np.array([k]))[0]
        assert size_biased_pmf(p, np.array(k)) == size_biased_pmf(p, k)
    for bad in (np.array(-1), 2.5, np.array([1.0, 2.0])):
        with pytest.raises(InputError):
            pmf(p, bad)
        with pytest.raises(InputError):
            size_biased_pmf(p, bad)


def test_lgamma_is_bit_equal_to_math_lgamma():
    x = np.concatenate([np.arange(1, 3000), np.geomspace(1e-3, 1e7, 2000)])
    assert distributions._lgamma(x).tolist() == [math.lgamma(v) for v in x.tolist()]
    assert distributions._lgamma(np.arange(1, 40)).tolist() == [
        math.lgamma(v) for v in range(1, 40)
    ]
    assert distributions._lgamma(np.array(7.5)).shape == ()


def test_size_biased_point_value():
    p = TruncatedPoissonParams.from_rate(1.5)
    assert size_biased_pmf(p, 0) == pytest.approx(math.exp(-1.5), rel=1e-14)


@pytest.mark.parametrize("rate", [0.5, 1.5, 3.0])
def test_size_biased_shift_identity(rate):
    # biasing by k and shifting down one turns the truncated law into
    # plain Poisson(rate): q(k) == (k+1) p(k+1) / mean
    p = TruncatedPoissonParams.from_rate(rate)
    for k in range(51):
        lhs = size_biased_pmf(p, k)
        rhs = (k + 1) * pmf(p, k + 1) / p.mean
        assert abs(lhs - rhs) <= 1e-12


def test_size_biased_normalizes():
    p = TruncatedPoissonParams.from_rate(2.0)
    assert size_biased_pmf(p, np.arange(0, 60)).sum() == pytest.approx(1.0, abs=1e-12)


# ----------------------------------------------------------------------
# sampling
# ----------------------------------------------------------------------


def test_sample_truncated_never_zero_and_concentrates(rng):
    p = TruncatedPoissonParams.from_rate(1e-4)
    draws = sample_truncated(p, rng, 10_000)
    assert draws.min() >= 1
    assert (draws == 1).mean() >= 0.999


def test_sample_truncated_mean(rng):
    p = TruncatedPoissonParams.from_rate(1.5)
    draws = sample_truncated(p, rng, 1_000_000)
    se = math.sqrt(p.variance / draws.size)
    assert abs(draws.mean() - p.mean) <= 3 * se


def test_sample_truncated_moments(rng):
    p = TruncatedPoissonParams.from_rate(1.5)
    draws = sample_truncated(p, rng, 1_000_000).astype(float)
    mean_se = math.sqrt(p.variance / draws.size)
    assert abs(draws.mean() - p.mean) <= 4 * mean_se
    # normal-approximation standard error for the sample variance
    centered = draws - draws.mean()
    var_se = math.sqrt((np.mean(centered**4) - p.variance**2) / draws.size)
    assert abs(draws.var(ddof=1) - p.variance) <= 4 * var_se


def test_sample_truncated_chi_square(rng):
    p = TruncatedPoissonParams.from_rate(2.0)
    draws = sample_truncated(p, rng, 1_000_000)
    kmax = 12  # expected count in the lumped tail still exceeds 100
    observed = np.bincount(np.minimum(draws, kmax), minlength=kmax + 1)[1:]
    expected = pmf(p, np.arange(1, kmax + 1))
    expected[-1] = 1.0 - expected[:-1].sum()
    result = stats.chisquare(observed, expected * draws.size)
    assert result.pvalue >= 0.001


def test_sample_truncated_large_rate_branch(rng):
    p = TruncatedPoissonParams.from_rate(35.0)
    draws = sample_truncated(p, rng, 100_000)
    assert draws.min() >= 1
    se = math.sqrt(p.variance / draws.size)
    assert abs(draws.mean() - p.mean) <= 4 * se


def test_sampling_is_deterministic():
    p = TruncatedPoissonParams.from_rate(1.5)
    a = sample_truncated(p, make_stream(99), 1000)
    b = sample_truncated(p, make_stream(99), 1000)
    assert np.array_equal(a, b)
    assert isinstance(sample_truncated(p, make_stream(1)), int)


def _fixture_rates() -> list[float]:
    rates = []
    for name in fixture_names():
        ds = load_fixture(name)
        m, n, t = ((ds.published or {}).get(k, getattr(ds.graph, k)) for k in ("m", "n", "t"))
        rates += [solve_rate(t / m).rate, solve_rate(t / n).rate]
    return rates


@pytest.mark.parametrize("rate", _fixture_rates())
def test_largest_uniform_stays_inside_the_inverse_cdf_table(rate):
    # u = 1 - 2^-53, the largest value random() returns, lands on the first
    # k whose cumulative sum reaches the table's final value: never past the
    # table, and never at the hard cap of an incomplete table
    full = np.cumsum(pmf_table(TruncatedPoissonParams.from_rate(rate)))
    first_final = int(np.argmax(full == full[-1])) + 1
    table = distributions._sampler_cdf(rate)
    assert table.size == first_final and table[-1] == 1.0
    assert np.array_equal(table[:-1], full[: first_final - 1])
    u = np.array([0.0, full[0], np.nextafter(1.0, 0.0)])
    assert distributions._inverse_cdf(rate, u).tolist() == [1, 2, first_final]


@pytest.mark.parametrize("rate", _fixture_rates() + [0.1, 1.5, 30.0])
def test_pmf_table_stops_once_a_term_no_longer_changes_the_sum(rate):
    # every entry moves the running sum, and the next term would not (or the
    # tail mass is below 1e-17): far short of the hard cap
    params = TruncatedPoissonParams.from_rate(rate)
    table = pmf_table(params)
    cum = np.cumsum(table)
    assert table.size <= 85
    assert (cum[1:] > cum[:-1]).all()
    following = table[-1] * (rate / (table.size + 1))  # the recurrence's next term
    assert cum[-1] + following == cum[-1] or 1.0 - cum[-1] < 1e-17


def test_sampler_cdf_is_pinned():
    # the sha256 of the inverse-CDF tables has not changed since the tables
    # were cut at the first entry equal to the sum's final value
    digest = hashlib.sha256()
    for rate in _fixture_rates() + [0.1, 1.5, 30.0]:
        digest.update(distributions._sampler_cdf(rate).tobytes())
    assert digest.hexdigest() == (
        "a9f27cbafa42baf8574fc5c266b28a6c47ddd6351c5b88ed8d9b5eacd69e4b6d"
    )


@pytest.mark.parametrize("rate", _fixture_rates() + [0.1, 30.0, 1e6])
def test_pmf_ratios_read_0_outside_the_support_and_1_at_the_peak(rate):
    # a clipped lookup reads 0 for every k < 1 and every k past the table,
    # exactly 1 at the mode, and pmf(k) / peak in between
    first, ratio, peak = distributions._pmf_ratios(rate)
    params = TruncatedPoissonParams.from_rate(rate)
    past = first + ratio.size - 1  # the trailing zero's k
    ks = np.union1d(np.arange(-3, 3), np.arange(first - 3, past + 3))
    read = ratio.take(ks - first, mode="clip")
    assert (read[ks < 1] == 0.0).all() and (read[ks >= past] == 0.0).all()
    mode = math.floor(rate) if rate > 1 else 1
    assert ratio.max() == 1.0 and read[ks == mode] == 1.0
    assert peak == pytest.approx(pmf(params, mode), rel=1e-12)
    inside = (ks >= 1) & (ks < past)
    np.testing.assert_allclose(read[inside] * peak, pmf(params, ks[inside]), rtol=1e-7, atol=1e-15)
    if rate > distributions._INVERSE_CDF_MAX_RATE:
        # a window of the mode +- 12 sd, not the support from 1, whose ends
        # a keep uniform, a multiple of 2^-53, almost never falls below
        assert ratio.size <= 2 * math.ceil(12 * math.sqrt(rate)) + 3 and first > 1
        assert max(ratio[1], ratio[-2]) < 2.0**-53


def _lookup_points(cdf):
    # every bucket edge b/4096, each CDF entry with its neighbouring doubles
    # on both sides, and the extremes of random(): 0 and 1 - 2^-53
    edges = np.arange(distributions._GUIDE_BUCKETS) / distributions._GUIDE_BUCKETS
    near = np.concatenate([np.nextafter(cdf, 0.0), cdf, np.nextafter(cdf, 2.0)])
    return np.concatenate([edges, near[near < 1.0], [0.0, np.nextafter(1.0, 0.0)]])


@pytest.mark.parametrize("rate", _fixture_rates() + [0.1, 1.5, 30.0])
def test_guide_lookup_matches_binary_search(rate):
    cdf = distributions._sampler_cdf(rate)
    guide = distributions._sampler_guide(rate)
    points = _lookup_points(cdf)
    expected = np.searchsorted(cdf, points, side="right") + 1
    # below the crossover _inverse_cdf searches; the guide must agree there too
    for piece in np.array_split(np.arange(points.size), 8):
        assert piece.size < distributions._GUIDE_MIN_VALUES
        assert np.array_equal(distributions._inverse_cdf(rate, points[piece]), expected[piece])
        assert np.array_equal(
            distributions._guided_lookup(cdf, guide, points[piece]), expected[piece]
        )
    # above it, in several lookup slices and as a block of stream rows
    assert points.size >= distributions._GUIDE_MIN_VALUES
    assert np.array_equal(distributions._inverse_cdf(rate, points), expected)
    order = make_stream(5).permutation(np.tile(np.arange(points.size), 16))
    assert order.size > 2 * distributions._GUIDE_SLICE
    rows = points[order].reshape(16, -1)
    assert np.array_equal(distributions._inverse_cdf(rate, rows), expected[order].reshape(16, -1))


def test_guide_table_marks_exactly_the_buckets_with_an_entry_inside():
    # entries on bucket edges (1/4096, 1/4, 4095/4096) leave their buckets
    # unmarked; two entries inside bucket 2048 and one in bucket 1024 mark them
    cdf = np.array([1, 1024, 1024.5, 2048.25, 2048.75, 4095, 4096]) / 4096
    guide = distributions._guide_from_cdf(cdf)
    assert np.flatnonzero(guide == 0).tolist() == [1024, 2048]
    assert guide[[0, 1, 1023, 1025, 2049, 4094, 4095]].tolist() == [1, 2, 2, 4, 6, 6, 7]
    points = _lookup_points(cdf)
    expected = np.searchsorted(cdf, points, side="right") + 1
    assert np.array_equal(distributions._guided_lookup(cdf, guide, points), expected)


# ----------------------------------------------------------------------
# tail bounds
# ----------------------------------------------------------------------


def test_tail_bounds_point_values():
    lower, _ = tail_bounds(10.0, 2.0)
    assert lower == pytest.approx(math.exp(-1.5), rel=1e-14)
    _, upper = tail_bounds(20.0, 3.0)
    assert upper == pytest.approx(
        math.exp(20 - 60 * math.log(2)) / -math.expm1(-20.0), rel=1e-12
    )


def test_tail_bounds_hypotheses():
    with pytest.raises(DomainError):
        tail_bounds(10.0, 1.0 / math.log(2))
    with pytest.raises(InputError):
        tail_bounds(0.0, 2.0)


def _exact_lower_tail(rate: float, cutoff: float) -> float:
    p = TruncatedPoissonParams.from_rate(rate)
    ks = np.arange(1, int(cutoff) + 1)
    return float(pmf(p, ks).sum()) if ks.size else 0.0


def _exact_upper_tail(rate: float, cutoff: float) -> float:
    p = TruncatedPoissonParams.from_rate(rate)
    lo = math.ceil(cutoff)
    hi = int(cutoff + 40 * math.sqrt(rate) + 80)
    return float(pmf(p, np.arange(lo, hi + 1)).sum())


@pytest.mark.parametrize("rate", [1.0, 2.0, 5.0, 10.0, 20.0, 30.0])
def test_tail_bounds_dominate_exact_tails(rate):
    lower, _ = tail_bounds(rate, 2.0)
    assert _exact_lower_tail(rate, rate / 2.0) <= lower
    for multiple in (1.5, 2.0, 3.0):
        _, upper = tail_bounds(rate, multiple)
        assert _exact_upper_tail(rate, multiple * rate) <= upper
