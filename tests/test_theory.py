import math

import numpy as np
import pytest
from scipy import stats

from oxgrid.distributions import solve_rate
from oxgrid.errors import DomainError, InputError
from oxgrid import theory
from oxgrid.oracle import exhaustive_census
from oxgrid.theory import (
    birthday_factor,
    composite_fixed_point,
    connectivity_edge_count,
    connectivity_parameter,
    count_asymptotic_log,
    count_exact,
    count_exact_log,
    distinct_ratio_bracket,
    er_expected_trees,
    expected_trees,
    expected_trees_exact,
    extinction_probabilities,
    labeled_tree_count,
    poisson_tail,
    predict,
    surjection_count,
)


# ----------------------------------------------------------------------
# exact counting
# ----------------------------------------------------------------------


def test_count_exact_known_values():
    assert count_exact(2, 2, 2) == 4
    assert count_exact(1, 1, 7) == 1
    assert count_exact(1, 2, 2) == 2
    assert count_exact(2, 2, 3) == 36
    assert count_exact(3, 2, 1) == 0  # t below max(m, n)


def test_count_exact_log_values():
    assert count_exact_log(2, 2, 2) == pytest.approx(math.log(4))
    assert count_exact_log(1, 1, 3) == 0.0
    assert count_exact_log(5, 5, 3) == -math.inf


@pytest.mark.parametrize(
    "m,n,t",
    [(1, 1, 1), (2, 2, 3), (3, 7, 12), (7, 3, 12), (40, 25, 90), (60, 60, 150), (300, 200, 800)],
)
def test_count_exact_log_is_the_log_of_the_exact_count(m, n, t):
    # summed per-side logs, one side counted once on a square grid, against
    # the log of the exact product
    expected = theory._log_big(count_exact(m, n, t))
    assert count_exact_log(m, n, t) == pytest.approx(expected, rel=1e-15, abs=1e-300)


@pytest.mark.parametrize("m,n,t", [(5, 5, 4), (3, 7, 6), (7, 3, 6), (4, 2, 0)])
def test_count_exact_log_is_minus_infinity_below_max_side(m, n, t):
    assert count_exact_log(m, n, t) == -math.inf


def test_count_exact_log_validates_like_count_exact():
    for m, n, t in [(0, 3, 5), (3, 0, 5), (3, 3, -1)]:
        with pytest.raises(InputError):
            count_exact_log(m, n, t)
        with pytest.raises(InputError):
            count_exact(m, n, t)


@pytest.mark.parametrize("m,n,t", [(2, 2, 2), (2, 2, 4), (2, 3, 4), (3, 3, 4), (1, 3, 5)])
def test_count_factors_into_per_side_surjections(m, n, t):
    # the ordered-sequence count must equal both the exhaustive enumeration
    # and the product of per-coordinate surjection counts
    census = exhaustive_census(m, n, t, track_outcomes=False)
    assert count_exact(m, n, t) == census.valid_count
    assert census.valid_count == surjection_count(t, m) * surjection_count(t, n)


def test_count_asymptotic_accuracy():
    r50 = math.exp(count_exact_log(50, 50, 100) - count_asymptotic_log(50, 50, 100))
    r200 = math.exp(count_exact_log(200, 200, 400) - count_asymptotic_log(200, 200, 400))
    assert 0.9 <= r50 <= 1.1
    assert 0.97 <= r200 <= 1.03
    assert abs(r200 - 1) < abs(r50 - 1)
    assert math.isfinite(count_asymptotic_log(22, 27, 44))


def test_count_asymptotic_domain():
    with pytest.raises(DomainError):
        count_asymptotic_log(4, 4, 4)  # mean degree exactly 1


def test_birthday_factor():
    assert birthday_factor(22, 27, 44) == pytest.approx(0.19600215407574686, rel=1e-12)
    assert birthday_factor(10, 10, 0) == 1.0


def test_distinct_ratio_bracket():
    lo, hi = distinct_ratio_bracket(22, 27, 44)
    assert lo == pytest.approx(math.exp(-(44 / 22) * (44 / 27)), rel=1e-12)
    assert hi == 1.0


# ----------------------------------------------------------------------
# extinction probabilities
# ----------------------------------------------------------------------


def test_extinction_subcritical_is_certain():
    ext = extinction_probabilities(0.503, 0.605)
    assert (ext.zeta_left, ext.zeta_right, ext.xi_left, ext.xi_right) == (1, 1, 1, 1)


def _composite(first_rate, second_rate, z):
    return math.exp(second_rate * math.expm1(first_rate * (z - 1.0)))


def _iterate_fixed_point(first_rate, second_rate):
    # reference: the monotone iteration from 0, which converges upward to the
    # smallest fixed point; only where its steps still shrink fast
    z = 0.0
    for _ in range(10**5):
        nz = _composite(first_rate, second_rate, z)
        if abs(nz - z) <= 1e-15:
            return nz
        z = nz
    raise AssertionError("the iteration did not converge")


def test_extinction_two_methods_agree():
    # the bisection against the iteration, where the iteration converges
    for a, b in [(1.5, 1.5), (2.0, 1.1), (5.0, 0.9), (1.5, 1.0)]:
        assert composite_fixed_point(a, b) == pytest.approx(_iterate_fixed_point(a, b), abs=1e-13)
    # frozen value derived independently by both monotone iteration and
    # bisection on the fixed-point equation
    assert composite_fixed_point(1.5, 1.5) == pytest.approx(0.4171883561341874, abs=1e-9)


@pytest.mark.parametrize(
    "product", [1.0 + 1e-6, 1.0 + 1e-5, 1.0 + 1e-4, 1.1, 2.25, 10.0, 100.0]
)
@pytest.mark.parametrize("skew", [1.0, 3.0])
def test_extinction_solve_brackets_the_root_within_one_ulp(product, skew):
    # a one-ulp certificate: g - id changes sign between the result and the
    # next double above it. Near criticality the root is far from where a
    # stop on the step size of the monotone iteration lands (58% off in the
    # giant fraction at 1 + 1e-6)
    a = math.sqrt(product) * skew
    b = product / a
    z = composite_fixed_point(a, b)
    above = math.nextafter(z, 2.0)
    assert 0.0 < z < 1.0
    assert _composite(a, b, z) - z > 0 >= _composite(a, b, above) - above


@pytest.mark.parametrize(
    "a,b", [(1.5, 1.5), (2.0, 1.1), (1.06, 1.04), (5.0, 0.9), (50.0, 2.0)]
)
def test_extinction_fixed_point_residual(a, b):
    ext = extinction_probabilities(a, b)
    inner = math.exp(a * math.expm1(b * (ext.zeta_left - 1)))
    assert abs(inner - ext.zeta_left) <= 1e-12
    outer = math.exp(b * math.expm1(a * (ext.zeta_right - 1)))
    assert abs(outer - ext.zeta_right) <= 1e-12


@pytest.mark.parametrize("product", [1.1, 2.0, 5.0])
def test_supercritical_extinction_strictly_below_one(product):
    a = b = math.sqrt(product)
    ext = extinction_probabilities(a, b)
    assert ext.zeta_right < 1.0
    assert ext.xi_left < 1.0


def test_xi_applies_root_generating_function():
    ext = extinction_probabilities(1.5, 1.5)
    expected = math.expm1(1.5 * ext.zeta_right) / math.expm1(1.5)
    assert ext.xi_left == pytest.approx(expected, rel=1e-12)
    assert ext.xi_left == pytest.approx(0.2497949927143974, abs=1e-9)


@pytest.mark.parametrize("t", [2130, 10**5])
def test_extinction_past_the_rate_where_e_to_the_rate_overflows(t):
    # side rates of 710 and 33,333: (e^(a z) - 1)/(e^a - 1) would overflow
    ext = predict(3, 3, t).extinction
    for xi in (ext.xi_left, ext.xi_right):
        assert 0.0 <= xi <= 1.0
    assert extinction_probabilities(2000.0, 2000.0).xi_left == 0.0


# ----------------------------------------------------------------------
# tree expectations
# ----------------------------------------------------------------------


def test_labeled_tree_count_values():
    assert labeled_tree_count(1, 1) == 1
    assert labeled_tree_count(2, 2) == 4
    assert labeled_tree_count(2, 3) == 12
    assert labeled_tree_count(20, 20) == 20**19 * 20**19  # exact big integer


def test_expected_trees_published_rows():
    # recomputed expectations for the four self-consistent comparisons
    table = {
        (22, 27, 44): (3.06, 0.33, 0.83),
        (22, 21, 28): (9.23, 1.69, 1.26),
        (22, 19, 32): (4.53, 1.17, 0.57),
        (20, 22, 38): (2.63, 0.37, 0.57),
    }
    for (m, n, t), (e11, e21, e12) in table.items():
        assert expected_trees(1, 1, m, n, t) == pytest.approx(e11, rel=0.03)
        assert expected_trees(2, 1, m, n, t) == pytest.approx(e21, rel=0.03)
        assert expected_trees(1, 2, m, n, t) == pytest.approx(e12, rel=0.03)


def test_expected_trees_smallest_shape_closed_form():
    a = 1.457763
    b = 1.214536
    value = expected_trees(1, 1, 20, 22, 38)
    assert value == pytest.approx(math.exp(-a - b) * 38, rel=1e-4)


@pytest.mark.parametrize("i,j", [(1, 1), (2, 1), (1, 2), (2, 3), (3, 2)])
def test_expected_trees_transpose_symmetry(i, j):
    assert expected_trees(i, j, 24, 31, 50) == pytest.approx(
        expected_trees(j, i, 31, 24, 50), rel=1e-12
    )


@pytest.mark.parametrize("m,n,t,i,j", [(2, 2, 3, 1, 1), (2, 3, 4, 1, 1), (2, 3, 4, 1, 2), (3, 3, 4, 2, 1)])
def test_expected_trees_exact_agrees_with_enumeration(m, n, t, i, j):
    # average the census over every valid sequence and compare with the
    # closed finite-size expression
    from oxgrid.graph import BipartiteMultigraph, components, tree_census

    census = exhaustive_census(m, n, t)
    total = 0
    for key, cnt in census.outcome_frequencies.items():
        edges = [(code // n, code % n) for code in key]
        cen = tree_census(components(BipartiteMultigraph(m, n, edges)), i, j)
        total += cen[i, j] * cnt
    assert expected_trees_exact(i, j, m, n, t) == pytest.approx(
        total / census.valid_count, rel=1e-12
    )


def test_expected_trees_exact_approaches_limit():
    # relative gap to the limiting formula shrinks as sizes scale up
    gap_small = abs(expected_trees_exact(1, 1, 22, 21, 28) / expected_trees(1, 1, 22, 21, 28) - 1)
    gap_large = abs(expected_trees_exact(1, 1, 220, 210, 280) / expected_trees(1, 1, 220, 210, 280) - 1)
    assert gap_large < gap_small
    assert expected_trees_exact(1, 1, 22, 21, 28) == pytest.approx(9.08246, rel=1e-4)


def _scalar_tree_law(i: int, j: int, a: float, b: float, scale: float) -> float:
    """Reference: the (i, j)-tree law as a scalar product of big-integer
    factorials and float powers, times ``scale``."""
    return (
        labeled_tree_count(i, j)
        / (math.factorial(i) * math.factorial(j))
        * (math.exp(-b) * a) ** j
        * (math.exp(-a) * b) ** i
        * scale
    )


# the (m, n, t) of the five genome fixtures
FIXTURE_SIZES = [(22, 27, 44), (22, 21, 28), (22, 19, 32), (22, 38, 67), (20, 22, 38)]


def _worst_gap(law, reference, shapes) -> float:
    """Largest relative gap of ``law`` to ``reference`` over the shapes where
    the reference is at least 1e-150 (below, its float powers go subnormal)."""
    gaps = []
    for i, j in shapes:
        ref = reference(i, j)
        if ref >= 1e-150:
            gaps.append(abs(law(i, j) / ref - 1))
    assert gaps
    return max(gaps)


SMALL_SHAPES = [(i, j) for i in range(1, 9) for j in range(1, 9)]


@pytest.mark.parametrize("m,n,t", FIXTURE_SIZES)
def test_expected_trees_matches_scalar_reference_on_fixtures(m, n, t):
    a = solve_rate(t / m).rate
    b = solve_rate(t / n).rate
    gap = _worst_gap(
        lambda i, j: expected_trees(i, j, m, n, t),
        lambda i, j: _scalar_tree_law(i, j, a, b, t / (a * b)),
        SMALL_SHAPES,
    )
    assert gap <= 1e-12


@pytest.mark.parametrize("t", [19308, 13949])  # the c4 and c5a points
def test_expected_trees_matches_scalar_reference_to_size_300(t):
    m = n = 10**4
    a = solve_rate(t / m).rate
    b = solve_rate(t / n).rate
    k = np.arange(1, 300)
    table = expected_trees(k[:, None], k, m, n, t)
    shapes = [(i, j) for i in range(1, 300) for j in range(1, 301 - i)]
    gap = _worst_gap(
        lambda i, j: table[i - 1, j - 1],
        lambda i, j: _scalar_tree_law(i, j, a, b, t / (a * b)),
        shapes,
    )
    assert gap <= 1e-12
    assert np.isfinite(table).all() and (table >= 0).all()


def test_expected_trees_array_call_equals_scalar_calls():
    k = np.arange(1, 41)
    table = expected_trees(k[:, None], k, 22, 21, 28)
    assert table.shape == (40, 40)
    scalars = [[expected_trees(i, j, 22, 21, 28) for j in range(1, 41)] for i in range(1, 41)]
    assert all(type(v) is float for row in scalars for v in row)
    assert np.array_equal(table, np.array(scalars))
    # a row of shapes broadcasts against a scalar
    assert np.array_equal(expected_trees(3, k, 22, 21, 28), table[2])


@pytest.mark.parametrize("m,n,t", FIXTURE_SIZES)
def test_er_expected_trees_matches_scalar_reference(m, n, t):
    from oxgrid.generators import er_params_for

    big_m, big_n, p = er_params_for(m, n, t)
    gap = _worst_gap(
        lambda i, j: er_expected_trees(i, j, big_m, big_n, p),
        lambda i, j: _scalar_tree_law(i, j, big_n * p, big_m * p, 1 / p),
        SMALL_SHAPES,
    )
    assert gap <= 1e-12
    k = np.arange(1, 9)
    assert np.array_equal(
        er_expected_trees(k[:, None], k, big_m, big_n, p),
        np.array([[er_expected_trees(i, j, big_m, big_n, p) for j in k] for i in k]),
    )


def test_tree_law_rejects_shapes_below_one():
    with pytest.raises(InputError):
        expected_trees(np.array([1, 0, 2]), 1, 22, 21, 28)
    with pytest.raises(InputError):
        expected_trees(1, np.array([[2], [0]]), 22, 21, 28)
    with pytest.raises(InputError):
        expected_trees(0, 1, 22, 21, 28)
    with pytest.raises(InputError):
        er_expected_trees(np.array([0, 1]), 1, 30, 30, 0.05)


def test_er_expected_trees_consistency():
    from oxgrid.generators import er_params_for

    big_m, big_n, p = er_params_for(22, 21, 28)
    for i, j in [(1, 1), (2, 1), (1, 2)]:
        assert er_expected_trees(i, j, big_m, big_n, p) == pytest.approx(
            expected_trees(i, j, 22, 21, 28), rel=0.10
        )
    a = big_n * p
    b = big_m * p
    assert er_expected_trees(1, 1, big_m, big_n, p) == pytest.approx(
        math.exp(-a - b) * big_m * big_n * p, rel=1e-12
    )
    with pytest.raises(DomainError):
        er_expected_trees(1, 1, 10, 10, 0.0)


# ----------------------------------------------------------------------
# connectivity and Poisson tails
# ----------------------------------------------------------------------


def test_connectivity_parameter_value():
    assert connectivity_parameter(22, 27, 44) == pytest.approx(0.9326303250, rel=1e-9)


@pytest.mark.parametrize("c", [0.5, 1.0, 1.7])
def test_connectivity_parameter_round_trip(c):
    m = n = 4000
    t = connectivity_edge_count(m, n, c)
    assert connectivity_parameter(m, n, t) == pytest.approx(c, abs=1e-4)


def test_poisson_tail_values():
    assert poisson_tail(2.63, 0, "eq") == pytest.approx(0.0720784622387661, rel=1e-12)
    # the published tail claim of 0.097 for mean 0.86 does not reproduce:
    # the true tail at 0.86 is ~0.056, and 0.097 corresponds to mean ~1.066
    assert poisson_tail(0.86, 3, "ge") == pytest.approx(0.056433, rel=1e-4)
    assert poisson_tail(1.066, 3, "ge") == pytest.approx(0.092833, rel=1e-4)
    assert poisson_tail(2.0, 0, "le") == pytest.approx(math.exp(-2.0), rel=1e-12)
    assert poisson_tail(2.0, 1, "ge") + poisson_tail(2.0, 0, "le") == pytest.approx(1.0)
    with pytest.raises(InputError):
        poisson_tail(2.0, 1, "sideways")
    for mean in (0.0, 2.0):
        with pytest.raises(InputError):
            poisson_tail(mean, 2.5)


def _tail_points(mean: float) -> list[int]:
    sd = math.sqrt(mean)
    points = [0, 1, 2, 3, mean - 5 * sd, mean - sd, mean, mean + 1, mean + sd]
    points += [mean + 5 * sd, mean + 10 * sd, 2 * mean + 40]
    return sorted({int(k) for k in points if k >= 0})


@pytest.mark.parametrize("mean", [1e-3, 0.5, 2.63, 30.0, 708.0, 800.0, 1e4, 1e5])
def test_poisson_tail_matches_scipy(mean):
    # the far side of k from the mean is summed from its log-space term, so
    # tails far below 1e-16 and means past 708 keep their digits
    for k in _tail_points(mean):
        for direction, want in (
            ("ge", stats.poisson.sf(k - 1, mean)),
            ("le", stats.poisson.cdf(k, mean)),
            ("eq", stats.poisson.pmf(k, mean)),
        ):
            got = poisson_tail(mean, k, direction)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-300), (k, direction)


def test_poisson_tail_edges():
    # the cumulative sum from e^-mean read 1.0 and 0.0 here
    assert poisson_tail(800.0, 900) == pytest.approx(stats.poisson.sf(899, 800.0), rel=1e-9)
    assert poisson_tail(0.5, 15) == pytest.approx(stats.poisson.sf(14, 0.5), rel=1e-9)
    # mean 0 is a point mass at 0
    assert [poisson_tail(0.0, k, d) for d in ("ge", "le", "eq") for k in (0, 2)] == [
        1.0, 0.0, 1.0, 1.0, 1.0, 0.0
    ]


def _c_where_expected_trees_hit_one(n: int) -> float:
    lo, hi = 0.5, 3.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        t = connectivity_edge_count(n, n, mid)
        if expected_trees(1, 1, n, n, t) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_finite_size_connectivity_crossing_decreases_toward_one():
    # the c at which the smallest-tree expectation crosses 1 sits above the
    # asymptotic threshold and drifts down toward it as sizes grow
    cs = [_c_where_expected_trees_hit_one(n) for n in (10**3, 10**4, 10**5, 10**6)]
    assert all(c > 1.0 for c in cs)
    assert all(a > b for a, b in zip(cs, cs[1:]))


# ----------------------------------------------------------------------
# combined report
# ----------------------------------------------------------------------


def test_predict_subcritical_report():
    report = predict(22, 21, 28)
    assert report.rate_product < 1.0
    assert report.extinction.xi_left == 1.0
    assert report.giant_left_fraction == 0.0
    assert report.expected_tree_matrix[1, 1] == pytest.approx(9.2345, rel=1e-3)
    payload = report.to_dict()
    assert payload["expected_trees"]["1,1"] == pytest.approx(9.2345, rel=1e-3)
    assert payload["log_count_exact"] is not None


def test_predict_supercritical_report():
    report = predict(20, 22, 38)
    assert report.rate_product == pytest.approx(1.7705, abs=2e-3)
    assert 0.0 < report.extinction.xi_left < 1.0
    assert report.giant_left_fraction == pytest.approx(1 - report.extinction.xi_left)
    assert report.connectivity_c == pytest.approx(
        connectivity_parameter(20, 22, 38), rel=1e-12
    )


def test_predict_requires_supercritical_means():
    with pytest.raises(DomainError):
        predict(5, 5, 5)


# ----------------------------------------------------------------------
# one front door for (m, n, t)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "call",
    [
        lambda: expected_trees(1, 1, 0, 5, 10),
        lambda: count_asymptotic_log(0, 5, 10),
        lambda: connectivity_parameter(0, 5, 10),
        lambda: connectivity_edge_count(0, 5, 1.0),
        lambda: expected_trees_exact(1, 1, 0, 5, 10),
    ],
    ids=["expected_trees", "count_asymptotic_log", "connectivity_parameter",
         "connectivity_edge_count", "expected_trees_exact"],
)
def test_a_zero_side_is_an_input_error(call):
    # the first three used to divide by zero; the last two returned 0
    with pytest.raises(InputError, match="m and n must be >= 1"):
        call()


def test_predict_rejects_a_negative_edge_count():
    # t = -1 used to reach the rate solve and raise DomainError
    with pytest.raises(InputError, match="t must be an edge count >= 0"):
        predict(5, 5, -1)


@pytest.mark.parametrize(
    "i,j,m,n,t",
    [(3, 1, 2, 3, 4), (1, 4, 3, 3, 5), (3, 3, 3, 3, 3)],
    ids=["i-over-m", "j-over-n", "t-below-tree-edges"],
)
def test_expected_trees_exact_is_zero_for_a_tree_that_cannot_fit(i, j, m, n, t):
    # a side larger than the graph's, or more tree edges (i + j - 1) than t
    assert expected_trees_exact(i, j, m, n, t) == 0.0


def test_predict_needs_a_tree_shape():
    with pytest.raises(InputError, match="max_tree must be >= 1"):
        predict(5, 5, 8, max_tree=0)


def test_expected_trees_exact_rejects_every_shape_of_an_uncoverable_triple():
    # (5, 1) at (2, 2, 1) used to return 0.0 where (1, 1) raised
    for i, j in [(1, 1), (5, 1)]:
        with pytest.raises(DomainError, match="no valid outcomes"):
            expected_trees_exact(i, j, 2, 2, 1)


@pytest.mark.parametrize("m,n,t", [(22, 27, 44), (3000, 2000, 6000)])
def test_predict_matrix_is_expected_trees(m, n, t):
    matrix = predict(m, n, t, max_tree=6).expected_tree_matrix
    for i in range(1, 7):
        for j in range(1, 7):
            assert matrix[i, j] == expected_trees(i, j, m, n, t)
