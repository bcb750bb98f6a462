"""End-to-end acceptance suite.

Each test prints one [acceptance] PASS/FAIL line with the measured numbers
before asserting, so the final report is readable straight off the pytest
output. Criterion 5a checks subcritical cluster sizes at rate product 0.5
against the paper's (i, j)-tree law (`theory.expected_trees`), the limit
law that `tp` samples. That law predicts 0.341 tree components over 60
vertices per replicate at m = n = 1e4, so a replicate exceeds 60 with
probability p = 0.289, and a fixed ceiling of 60 on all 50 replicates would
hold with probability 4e-8. The test therefore asserts that the number of
replicates over 60 lies in the central Binomial(50, p) band at a two-sided
false-failure level of 1e-3, with p computed from the law as the test runs.
The reckoning is in the README's acceptance-suite notes.
"""

import math

import numpy as np
import pytest

from oxgrid.distributions import TruncatedPoissonParams, pmf, size_biased_pmf, tail_bounds
from oxgrid.generators import ModelSpec, sample_tp
from oxgrid.graph import BipartiteMultigraph, components, tree_census
from oxgrid.harness import (
    aggregate_connectivity_rows,
    estimate_distinct_probability,
    run_tree_comparison,
    sweep_connectivity,
)
from oxgrid.oracle import enumerate_bipartite_trees, exhaustive_census, tp_equivalence_test
from oxgrid.rng import make_stream, split_stream
from oxgrid.theory import (
    count_asymptotic_log,
    count_exact,
    count_exact_log,
    expected_trees,
    extinction_probabilities,
    labeled_tree_count,
)

pytestmark = pytest.mark.acceptance

SEED = 20240817


def _report(criterion: str, ok: bool, detail: str) -> str:
    line = f"[acceptance] {'PASS' if ok else 'FAIL'} {criterion}: {detail}"
    print(line, flush=True)
    return line


# ----------------------------------------------------------------------
# 1. analytic tree-count table on the genome grids
# ----------------------------------------------------------------------


def test_c1_tree_table_reproduction():
    paper_values = {
        "human_elephant": {"1,1": 3.06, "2,1": 0.33, "1,2": 0.83},
        "human_monkey": {"1,1": 9.23, "2,1": 1.69, "1,2": 1.26},
        "human_cat": {"1,1": 4.53, "2,1": 1.17, "1,2": 0.57},
        "human_lemur": {"1,1": 2.63, "2,1": 0.37, "1,2": 0.57},
    }
    report = run_tree_comparison(reps=0)
    rows = {(r["dataset"], r["shape"]): r for r in report["rows"]}
    worst = 0.0
    for name, shapes in paper_values.items():
        for shape, published in shapes.items():
            got = rows[(name, shape)]["expected_recomputed"]
            worst = max(worst, abs(got - published) / published)
    dog = rows[("human_dog", "1,1")]
    dog_flagged = dog["published_mismatch"] and any(
        "human_dog" in f and "(1,1)" in f for f in report["flags"]
    )
    dog_recomputed_ok = abs(dog["expected_recomputed"] - 1.07) <= 0.01
    ok = worst <= 0.03 and dog_flagged and dog_recomputed_ok
    _report(
        "criterion 1 (tree-count table)",
        ok,
        f"worst relative error {worst:.2%} (limit 3%); dog row flagged={dog_flagged} "
        f"with recomputed {dog['expected_recomputed']:.3f} vs published 0.86",
    )
    assert worst <= 0.03
    assert dog_flagged and dog_recomputed_ok


# ----------------------------------------------------------------------
# 2. exact count vs exhaustive enumeration
# ----------------------------------------------------------------------


def test_c2_exact_count_matches_enumeration_everywhere():
    cap = 10**7
    checks = 0
    mismatches = []
    for m in range(1, 8):
        for n in range(m, 8):
            t_top = 12 if m * n == 1 else int(math.log(cap) / math.log(m * n))
            for t in range(0, t_top + 1):
                if (m * n) ** t > cap:
                    break
                census = exhaustive_census(m, n, t, cap=cap, track_outcomes=False)
                formula = count_exact(m, n, t)
                log_value = count_exact_log(m, n, t)
                rounded = 0 if log_value == -math.inf else round(math.exp(log_value))
                checks += 1
                if not (census.valid_count == formula == rounded == count_exact(n, m, t)):
                    mismatches.append((m, n, t, census.valid_count, formula))
    # spot zero-count instances with one large side
    for m, n, t in [(1, 40, 4), (3, 50, 3)]:
        census = exhaustive_census(m, n, t, cap=cap, track_outcomes=False)
        checks += 1
        if census.valid_count != count_exact(m, n, t):
            mismatches.append((m, n, t, census.valid_count, count_exact(m, n, t)))
    ok = not mismatches and count_exact(2, 2, 2) == 4
    _report(
        "criterion 2 (oracle count equivalence)",
        ok,
        f"{checks} instances enumerated under (m*n)^t <= 1e7, mismatches: {mismatches[:3]}",
    )
    assert ok


# ----------------------------------------------------------------------
# 3. configuration model vs exact uniform law
# ----------------------------------------------------------------------


@pytest.mark.parametrize("m,n,t", [(2, 2, 2), (2, 2, 3)])
def test_c3_equivalence_tv_within_noise_floor(m, n, t):
    samples = 10**6
    report = tp_equivalence_test(m, n, t, samples, make_stream(SEED + t))
    _report(
        f"criterion 3 (distribution equivalence at ({m},{n},{t}))",
        report.passed,
        f"tv={report.tv_distance:.6f} <= 3*sqrt({report.n_outcomes}/{samples}) = "
        f"{report.threshold:.6f} at {samples} samples",
    )
    assert report.passed


# ----------------------------------------------------------------------
# 4. giant component at rate product 2.25
# ----------------------------------------------------------------------


def test_c4_giant_component_fraction():
    m = n = 10_000
    rate = 1.5
    t = round(m * TruncatedPoissonParams.from_rate(rate).mean)
    assert t == 19308
    ext = extinction_probabilities(rate, rate)
    residual = abs(
        math.exp(rate * math.expm1(rate * (ext.zeta_right - 1))) - ext.zeta_right
    )
    target = 1.0 - ext.xi_left
    reps = 50
    deviations = []
    second_sizes = []
    for i in range(reps):
        summary = components(sample_tp(m, n, t, split_stream(SEED, i)))
        deviations.append(abs(summary.left[summary.largest] / m - target))
        second_sizes.append(summary.second_largest_size)
    mean_dev = float(np.mean(deviations))
    ok = mean_dev <= 0.01 and residual <= 1e-12 and max(second_sizes) <= 60
    _report(
        "criterion 4 (giant component)",
        ok,
        f"mean |left fraction - {target:.6f}| = {mean_dev:.5f} (limit 0.01) over {reps} reps; "
        f"fixed-point residual {residual:.2e}; max second-largest {max(second_sizes)} (limit 60)",
    )
    assert residual <= 1e-12
    assert mean_dev <= 0.01
    assert max(second_sizes) <= 60


# ----------------------------------------------------------------------
# 5. subcritical bounds at rate product 0.5
# ----------------------------------------------------------------------

SUBCRITICAL_RATE = math.sqrt(0.5)


@pytest.fixture(scope="module")
def subcritical_maxima():
    mean = TruncatedPoissonParams.from_rate(SUBCRITICAL_RATE).mean
    plan = [(10**3, 50), (10**4, 50), (10**5, 10)]
    maxima = {}
    per_rep = {}
    for n, reps in plan:
        t = round(n * mean)
        sizes = [
            components(sample_tp(n, n, t, split_stream(SEED + n, i))).largest_size
            for i in range(reps)
        ]
        maxima[n] = max(sizes)
        per_rep[n] = sizes
    return maxima, per_rep


def _expected_trees_by_size(m: int, n: int, t: int, limit: int = 300) -> list[float]:
    """Expected number of tree components with s = i + j vertices, for s up to
    `limit`, from the paper's (i, j)-tree law. At rate product 0.5 the sizes
    past 300 carry under 1e-8 of the count."""
    by_size = [0.0] * (limit + 1)
    for s in range(2, limit + 1):
        by_size[s] = math.fsum(expected_trees(i, s - i, m, n, t) for i in range(1, s))
    return by_size


def _binomial_band(reps: int, p: float, level: float) -> tuple[int, int, float]:
    """Central band [lo, hi] of Binomial(reps, p) whose two tails outside it
    each have probability at most level/2; also returns their total."""
    pmf = [math.comb(reps, k) * p**k * (1 - p) ** (reps - k) for k in range(reps + 1)]
    lo = next(k for k in range(reps + 1) if math.fsum(pmf[: k + 1]) > level / 2)
    hi = next(k for k in range(reps, -1, -1) if math.fsum(pmf[k:]) > level / 2)
    return lo, hi, math.fsum(pmf[:lo]) + math.fsum(pmf[hi + 1 :])


def test_c5a_subcritical_largest_component_bound(subcritical_maxima):
    _, per_rep = subcritical_maxima
    n = 10**4
    threshold = 60
    level = 1e-3
    sizes = per_rep[n]
    reps = len(sizes)
    t = round(n * TruncatedPoissonParams.from_rate(SUBCRITICAL_RATE).mean)
    by_size = _expected_trees_by_size(n, n, t)

    def expected_over(x: int) -> float:
        return math.fsum(by_size[x + 1 :])

    def p_max_at_most(x: int) -> float:
        """P(the largest component of all `reps` replicates has at most x vertices)."""
        return math.exp(-reps * expected_over(x))

    # The number of tree components over the threshold is close to Poisson, so
    # a replicate exceeds it with probability p and the count of replicates
    # that do is Binomial(reps, p).
    p = -math.expm1(-expected_over(threshold))
    lo, hi, false_fail = _binomial_band(reps, p, level)
    over = sum(1 for s in sizes if s > threshold)
    largest = max(sizes)
    median = next(x for x in range(len(by_size)) if p_max_at_most(x) >= 0.5)
    ok = lo <= over <= hi
    detail = (
        f"{over}/{reps} reps at n=1e4, rate product 0.5 have a component over "
        f"{threshold} vertices; the (i, j)-tree law gives p={p:.3f} per rep, "
        f"{reps * p:.1f} expected, central band [{lo}, {hi}] (false-failure "
        f"{false_fail:.1e}, level {level:.0e}); max over reps {largest} against "
        f"predicted median {median}, P(max <= {largest}) = {p_max_at_most(largest):.2f}"
    )
    _report(f"criterion 5a (subcritical clusters over {threshold} vertices)", ok, detail)
    assert ok, detail


def test_c5b_subcritical_growth_per_decade(subcritical_maxima):
    maxima, _ = subcritical_maxima
    r1 = maxima[10**4] / maxima[10**3]
    r2 = maxima[10**5] / maxima[10**4]
    ok = r1 <= 3.0 and r2 <= 3.0
    _report(
        "criterion 5b (subcritical growth per decade)",
        ok,
        f"max sizes {maxima[10**3]} -> {maxima[10**4]} -> {maxima[10**5]} across "
        f"n in (1e3, 1e4, 1e5); decade ratios {r1:.2f}, {r2:.2f} (limit 3)",
    )
    assert ok


# ----------------------------------------------------------------------
# 6. connectivity threshold
# ----------------------------------------------------------------------


def test_c6_connectivity_sweep():
    m = n = 5000
    grid = [0.6, 0.8, 1.0, 1.2, 1.4, 1.6]
    rows = sweep_connectivity(m, n, grid, reps=200, seed=SEED)
    agg = {r["c"]: r for r in aggregate_connectivity_rows(rows)}
    p_low, p_high = agg[0.6]["p_connected"], agg[1.6]["p_connected"]
    monotone = True
    for a, b in zip(grid, grid[1:]):
        slack = 2 * math.sqrt(agg[a]["se"] ** 2 + agg[b]["se"] ** 2)
        if agg[b]["p_connected"] < agg[a]["p_connected"] - slack:
            monotone = False
    ok = p_low <= 0.1 and p_high >= 0.9 and monotone
    profile = ", ".join(f"c={c}: {agg[c]['p_connected']:.3f}" for c in grid)
    _report(
        "criterion 6 (connectivity threshold)",
        ok,
        f"{profile}; expected smallest-tree counts {agg[0.6]['expected_trees_11']:.1f} "
        f"at c=0.6 and {agg[1.6]['expected_trees_11']:.4f} at c=1.6 explain the "
        f"finite-size crossing above c=1",
    )
    assert p_low <= 0.1
    assert p_high >= 0.9
    assert monotone


# ----------------------------------------------------------------------
# 7. asymptotic count accuracy
# ----------------------------------------------------------------------


def test_c7_asymptotic_count_ratio():
    r50 = math.exp(count_exact_log(50, 50, 100) - count_asymptotic_log(50, 50, 100))
    r200 = math.exp(count_exact_log(200, 200, 400) - count_asymptotic_log(200, 200, 400))
    ok = 0.97 <= r200 <= 1.03 and abs(r200 - 1) < abs(r50 - 1) and 0.9 <= r50 <= 1.1
    _report(
        "criterion 7 (asymptotic count)",
        ok,
        f"exact/asymptotic = {r50:.5f} at (50,50,100) and {r200:.5f} at (200,200,400)",
    )
    assert 0.9 <= r50 <= 1.1
    assert 0.97 <= r200 <= 1.03
    assert abs(r200 - 1) < abs(r50 - 1)


# ----------------------------------------------------------------------
# 8. birthday factor and distinct-edge bracket
# ----------------------------------------------------------------------


def test_c8_birthday_and_distinct_bracket():
    est = estimate_distinct_probability(1000, 1000, 1000, reps=10_000, seed=SEED)
    target = math.exp(-0.5)
    birthday_ok = abs(est["p_distinct"] - target) <= 3 * est["se"]

    cond = estimate_distinct_probability(
        100, 100, 150, reps=10_000, seed=SEED + 1, conditioned=True
    )
    lo = math.exp(-(150 / 100) * (150 / 100))
    bracket_ok = cond["p_distinct"] + 2 * cond["se"] >= lo and cond["p_distinct"] <= 1.0
    ok = birthday_ok and bracket_ok
    _report(
        "criterion 8 (distinct-edge probabilities)",
        ok,
        f"plain model: {est['p_distinct']:.4f} vs exp(-1/2)={target:.4f} "
        f"(3se={3 * est['se']:.4f}); conditioned: {cond['p_distinct']:.4f} in "
        f"[{lo:.4f}, 1] up to 2se",
    )
    assert birthday_ok
    assert bracket_ok


# ----------------------------------------------------------------------
# 9. property roll-up
# ----------------------------------------------------------------------


def test_c9_property_suites():
    failures = []

    # truncated pmf normalization and the size-bias shift identity
    for rate in (0.5, 1.5, 3.0):
        p = TruncatedPoissonParams.from_rate(rate)
        ks = np.arange(0, int(20 + 10 * rate) + 1)
        if abs(pmf(p, ks).sum() - 1) > 1e-12:
            failures.append(f"pmf normalization at rate {rate}")
        for k in range(40):
            if abs(size_biased_pmf(p, k) - (k + 1) * pmf(p, k + 1) / p.mean) > 1e-12:
                failures.append(f"size-bias identity at rate {rate}, k={k}")
                break

    # tail bounds dominate exact tails
    for rate in (1.0, 2.0, 5.0, 10.0, 20.0):
        p = TruncatedPoissonParams.from_rate(rate)
        lower, upper = tail_bounds(rate, 3.0)
        exact_lower = float(pmf(p, np.arange(1, int(rate / 2) + 1)).sum()) if rate >= 2 else 0.0
        hi = int(3 * rate + 40 * math.sqrt(rate) + 80)
        exact_upper = float(pmf(p, np.arange(math.ceil(3 * rate), hi)).sum())
        if exact_lower > lower or exact_upper > upper:
            failures.append(f"tail bound domination at rate {rate}")

    # labeled-tree formula vs enumeration for every shape with i*j <= 20
    pairs = 0
    for i in range(1, 21):
        for j in range(1, 21):
            if i * j > 20:
                continue
            pairs += 1
            if enumerate_bipartite_trees(i, j) != labeled_tree_count(i, j):
                failures.append(f"tree count mismatch at ({i},{j})")

    # seed determinism across the model zoo
    for spec in (
        ModelSpec(kind="gr", m=7, n=5, t=16, seed=3),
        ModelSpec(kind="gr1", m=4, n=4, t=9, seed=3),
        ModelSpec(kind="tp", m=9, n=6, t=18, seed=3),
        ModelSpec(kind="er", m=8, n=8, p=0.3, seed=3),
    ):
        if spec.sample() != spec.sample():
            failures.append(f"nondeterministic {spec.kind} sample")

    # census is invariant under edge reordering
    rng = make_stream(SEED)
    g = sample_tp(30, 30, 70, rng)
    shuffled = BipartiteMultigraph(g.m, g.n, g.edges[rng.permutation(g.t)])
    if not np.array_equal(
        tree_census(components(g), 5, 5), tree_census(components(shuffled), 5, 5)
    ):
        failures.append("census changed under edge permutation")

    ok = not failures
    _report(
        "criterion 9 (property suites)",
        ok,
        f"{pairs} tree shapes enumerated; failures: {failures[:4] or 'none'}",
    )
    assert ok, failures
