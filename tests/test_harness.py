import hashlib
import math
import os
import tracemalloc

import numpy as np
import pytest

from oxgrid import harness, theory
from oxgrid.errors import AttemptsExhausted, DomainError, InputError
from oxgrid.generators import sample_gr, sample_tp, sample_tp_edges
from oxgrid.graph import components, tree_census
from oxgrid.harness import (
    ExperimentConfig,
    aggregate_connectivity_rows,
    aggregate_giant_rows,
    estimate_distinct_probability,
    rows_to_csv,
    run_tree_comparison,
    sweep_connectivity,
    sweep_count_ratio,
    sweep_giant,
)
from oxgrid.ingest import fixture_names, load_fixture
from oxgrid.rng import split_stream, split_streams
from oxgrid.theory import count_exact_log, expected_trees_exact, extinction_probabilities

# a pool runs only where this process may use two CPUs
needs_pool = pytest.mark.skipif(harness._pool_workers(2, 2) < 2, reason="one usable CPU")


def test_experiment_config_validation():
    with pytest.raises(InputError):
        ExperimentConfig(kind="bogus", grid=[1])
    with pytest.raises(InputError):
        ExperimentConfig(kind="giant", grid=[])
    with pytest.raises(InputError):
        ExperimentConfig.from_dict({"kind": "giant", "grid": [1], "oops": 2})
    with pytest.raises(InputError, match="reps must be an integer"):
        ExperimentConfig(kind="giant", grid=[[300, 300, 580]], reps=True)
    with pytest.raises(InputError, match="grid points"):
        ExperimentConfig(kind="count-ratio", grid=[(50, 50)])
    with pytest.raises(InputError, match="needs m and n"):
        ExperimentConfig(kind="connectivity", grid=[0.6, 2], m=400)
    config = ExperimentConfig(kind="connectivity", grid=[0.6, 2], m=np.int64(400), n=400)
    assert config.grid == [0.6, 2]
    with pytest.raises(InputError, match="reps must be >= 0"):
        ExperimentConfig(kind="giant", grid=[[300, 300, 580]], reps=-1)


@pytest.mark.parametrize(
    "run",
    [
        lambda: sweep_giant([(300, 300, 580)], reps=0),
        lambda: sweep_connectivity(400, 400, [1.0], reps=0),
        lambda: estimate_distinct_probability(50, 50, 60, reps=0),
        lambda: estimate_distinct_probability(50, 50, 60, reps=0, conditioned=True),
    ],
    ids=["giant", "connectivity", "distinct", "distinct-conditioned"],
)
def test_replicated_estimates_need_a_replicate(run):
    with pytest.raises(InputError, match="reps"):
        run()


@pytest.mark.parametrize(
    "kind,grid,sizes",
    [
        ("giant", [[300, 300, 580]], {"m": 5, "n": -3}),
        ("giant", [[300, 300, 580]], {"n": 300}),
        ("count-ratio", [[50, 50, 100]], {"m": 50}),
    ],
)
def test_giant_and_count_ratio_configs_take_no_m_or_n(kind, grid, sizes):
    # these used to construct and then run at the grid's sizes
    with pytest.raises(InputError, match="belong to connectivity configs"):
        ExperimentConfig(kind=kind, grid=grid, reps=2, **sizes)


# ----------------------------------------------------------------------
# tree-count comparison report
# ----------------------------------------------------------------------


def test_tree_comparison_analytics_and_dog_flag():
    report = run_tree_comparison(reps=0)
    rows = {(r["dataset"], r["shape"]): r for r in report["rows"]}
    for name in ("human_elephant", "human_monkey", "human_cat", "human_lemur"):
        for shape in ("1,1", "2,1", "1,2"):
            row = rows[(name, shape)]
            assert row["expected_recomputed"] == pytest.approx(
                row["expected_published"], rel=0.03
            )
            assert not row["published_mismatch"]
    dog = rows[("human_dog", "1,1")]
    assert dog["published_mismatch"]
    assert dog["expected_recomputed"] == pytest.approx(1.07, abs=0.01)
    assert dog["expected_published"] == 0.86
    assert any("human_dog" in f and "(1,1)" in f for f in report["flags"])


def test_tree_comparison_tail_probabilities():
    report = run_tree_comparison(reps=0)
    rows = {(r["dataset"], r["shape"]): r for r in report["rows"]}
    # observed 0 trees on the lemur grid: tail is the zero-class probability
    lemur = rows[("human_lemur", "1,1")]
    assert lemur["observed"] == 0
    assert lemur["poisson_tail"] == pytest.approx(math.exp(-lemur["expected_recomputed"]))
    # observed 12 on the monkey grid: upper tail at the recomputed mean
    monkey = rows[("human_monkey", "1,1")]
    assert monkey["observed"] == 12
    assert 0.0 < monkey["poisson_tail"] < 1.0


def test_tree_comparison_simulation_matches_exact_expectation():
    # simulated means must track the exact finite-size expectation (the
    # asymptotic value differs by a visible 1-2 percent at these sizes)
    report = run_tree_comparison(reps=3000, seed=5)
    rows = {(r["dataset"], r["shape"]): r for r in report["rows"]}
    for shape in ("1,1", "2,1", "1,2"):
        row = rows[("human_monkey", shape)]
        i, j = (int(x) for x in shape.split(","))
        exact = expected_trees_exact(i, j, row["m"], row["n"], row["t"])
        assert abs(row["sim_mean"] - exact) <= 4 * row["sim_se"]


def test_tree_comparison_replicates_run_on_their_own_streams(monkeypatch):
    # under a cap of 128, 257 replicates run as lock-step blocks of 85, 86
    # and 86; each must count the trees of sample_tp on
    # split_stream(seed + dataset, i)
    monkeypatch.setattr(harness, "_LOCK_STEP_CAP", 128)
    datasets = [load_fixture(name) for name in ("human_cat", "human_dog")]
    reps, seed = 257, 21
    assert harness._block_bounds(reps, harness._LOCK_STEP_CAP) == [0, 85, 171, 257]
    report = run_tree_comparison(datasets, reps=reps, seed=seed)
    rows = {(r["dataset"], r["shape"]): r for r in report["rows"]}
    for ds_index, ds in enumerate(datasets):
        counts = np.array(
            [
                tree_census(components(sample_tp(ds.graph.m, ds.graph.n, ds.graph.t,
                                                 split_stream(seed + ds_index, i))), 2, 2)
                for i in range(reps)
            ]
        )
        for i, j in ((1, 1), (2, 1), (1, 2)):
            row = rows[(ds.name, f"{i},{j}")]
            assert row["sim_mean"] == counts[:, i, j].mean()
            assert row["sim_se"] == pytest.approx(counts[:, i, j].std(ddof=1) / math.sqrt(reps))


@pytest.mark.parametrize(
    "reps,cap", [(0, 128), (1, 128), (5, 128), (128, 128), (129, 128), (250, 128),
                 (257, 128), (137, 7), (6, 7), (10, 1), (1, 1), (0, 1)]
)
def test_block_bounds_are_near_equal_and_capped(reps, cap):
    bounds = harness._block_bounds(reps, cap)
    assert bounds[0] == 0 and bounds[-1] == reps
    sizes = np.diff(bounds)
    assert len(sizes) == -(-reps // cap)  # the fewest blocks under the cap
    assert (sizes >= 1).all() and (sizes <= cap).all()
    if reps:
        assert sizes.max() - sizes.min() <= 1


def test_tree_comparison_does_not_depend_on_the_block_cap(monkeypatch):
    # 137 replicates run one to a block at a cap of 1, as 20 blocks of 6-7
    # at a cap of 7, as 68 + 69 at 128 and as one block at the default
    datasets = [load_fixture(name) for name in ("human_monkey", "human_lemur")]
    reports = []
    for cap in (1, 7, 128, harness._LOCK_STEP_CAP):
        monkeypatch.setattr(harness, "_LOCK_STEP_CAP", cap)
        reports.append(run_tree_comparison(datasets, reps=137, seed=17))
    assert reports[0] == reports[1] == reports[2] == reports[3]


def test_sweeps_do_not_depend_on_the_block_cut(monkeypatch):
    # 13 replicates run one to a block, in blocks of 4-5, as one block, and
    # in blocks of 2-5 under an edge budget of 4,000; every side is longer
    # than _LEAF, so each block splits its sides in lock-step
    giant_grid = [(300, 300, 580), (200, 300, 700)]
    runs = []
    for cap, edges in ((1, 1 << 18), (5, 1 << 18), (128, 1 << 18), (128, 4_000)):
        monkeypatch.setattr(harness, "_LOCK_STEP_CAP", cap)
        monkeypatch.setattr(harness, "_BLOCK_EDGES", edges)
        runs.append(
            (
                sweep_giant(giant_grid, reps=13, seed=3),
                sweep_connectivity(200, 300, [1.0, 1.5], reps=13, seed=3),
            )
        )
    assert harness._block_bounds(13, harness._block_cap(1119)) == [0, 2, 5, 7, 10, 13]
    assert runs[0] == runs[1] == runs[2] == runs[3]


def test_six_replicates_of_a_sweep_point_are_one_block(monkeypatch):
    # a block's lock-step draws serve all its replicates, so a point runs
    # as the fewest blocks its edge budget allows: here one
    sizes = []

    def counting(m, n, t, rngs):
        sizes.append(len(rngs))
        return sample_tp_edges(m, n, t, rngs)

    monkeypatch.setattr(harness, "sample_tp_edges", counting)
    sweep_giant([(3000, 3000, 5792)], reps=6, seed=1)
    assert sizes == [6]
    sizes.clear()
    sweep_connectivity(2000, 2000, [1.6], reps=4, seed=1)
    assert sizes == [4]


def test_a_pooled_sweep_makes_a_block_for_each_worker(monkeypatch):
    # one block of 45 would leave the second worker idle; two points of six
    # replicates are already a block each
    sizes = []

    def counting(m, n, t, rngs):
        sizes.append(len(rngs))
        return sample_tp_edges(m, n, t, rngs)

    class InProcess:  # the pool's map, run here where the spy sees it
        map = staticmethod(map)

    monkeypatch.setattr(harness, "sample_tp_edges", counting)
    monkeypatch.setattr(harness, "_pool_workers", lambda threads, reps: min(threads, reps))
    monkeypatch.setattr(harness, "_executor", lambda workers: InProcess)
    point = (3000, 3000, 5792)
    assert 45 * point[2] >= harness._POOL_MIN_EDGES
    for threads, blocks in ((1, [45]), (2, [22, 23]), (3, [15, 15, 15])):
        sweep_giant([point], reps=45, seed=1, threads=threads)
        assert sizes == blocks
        sizes.clear()
    sweep_giant([point, (3000, 3000, 4185)], reps=6, seed=1, threads=2)
    assert sizes == [6, 6]


def test_a_pooled_call_hands_out_the_largest_t_first(monkeypatch):
    # longest-processing-time order: the blocks reach the pool's map by
    # descending t, a point's blocks in index order, and the rows come back
    # in index order
    handed = []

    class InProcess:  # the pool's map, run here where the spy sees it
        @staticmethod
        def map(fn, *columns):
            handed.extend(zip(*columns))
            return map(fn, *columns)

    monkeypatch.setattr(harness, "_pool_workers", lambda threads, reps: min(threads, reps))
    monkeypatch.setattr(harness, "_executor", lambda workers: InProcess)
    grid = [(300, 300, 420), (300, 300, 580), (300, 300, 500)]
    assert 40 * sum(t for _, _, t in grid) >= harness._POOL_MIN_EDGES
    pooled = sweep_giant(grid, reps=40, seed=6, threads=4)
    # each point's 40 replicates are two blocks: a quarter of 120 is 30
    order = [(job.args[2], seed, start, stop) for job, seed, start, stop in handed]
    assert order == [
        (580, 7, 0, 20), (580, 7, 20, 40),
        (500, 8, 0, 20), (500, 8, 20, 40),
        (420, 6, 0, 20), (420, 6, 20, 40),
    ]
    assert [(r["t"], r["replicate_index"]) for r in pooled] == [
        (t, i) for _, _, t in grid for i in range(40)
    ]
    assert pooled == sweep_giant(grid, reps=40, seed=6, threads=1)


def test_tree_comparison_runs_250_replicates_as_one_block(monkeypatch):
    # the per-round cost of a block is mostly fixed, so each fixture's 250
    # replicates must run as one block; past the cap of 512, a count runs
    # as the fewest near-equal blocks
    sizes = []

    def counting(m, n, t, rngs):
        sizes.append(len(rngs))
        return sample_tp_edges(m, n, t, rngs)

    monkeypatch.setattr(harness, "sample_tp_edges", counting)
    datasets = [load_fixture(name) for name in fixture_names()]
    run_tree_comparison(datasets, reps=250, seed=3)
    assert sizes == [250] * len(datasets)
    sizes.clear()
    run_tree_comparison(datasets[:1], reps=1100, seed=3)
    assert sizes == [366, 367, 367]


def test_a_tree_block_at_the_cap_stays_small():
    # one block of _LOCK_STEP_CAP replicates at (22, 38, 67), sampling and
    # labelling, peaked at 4.6-4.8 MB under tracemalloc at a cap of 512
    streams = split_streams(5, 0, harness._LOCK_STEP_CAP)
    tracemalloc.start()
    try:
        harness._tree_rows(22, 38, 67, ((1, 1), (2, 1), (1, 2)), streams)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_tree_comparison_is_identical_across_thread_counts():
    reports = [run_tree_comparison(reps=150, seed=8, threads=k) for k in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]
    assert all(row["sim_mean"] is not None for row in reports[0]["rows"])


@pytest.mark.parametrize("reps,threads", [(-5, 1), (10, 0), (0, 0), (10, -2)])
def test_tree_comparison_rejects_bad_reps_and_threads(reps, threads):
    with pytest.raises(InputError):
        run_tree_comparison(reps=reps, threads=threads)


def test_sweeps_reject_nonpositive_threads():
    with pytest.raises(InputError):
        sweep_giant([(300, 300, 580)], reps=2, threads=0)
    with pytest.raises(InputError):
        estimate_distinct_probability(50, 50, 60, reps=10, threads=-1)


# ----------------------------------------------------------------------
# sweeps
# ----------------------------------------------------------------------


def test_sweep_giant_tracks_extinction_fractions():
    rows = sweep_giant([(2000, 2000, 3862)], reps=8, seed=7)
    agg = aggregate_giant_rows(rows)[0]
    ext = extinction_probabilities(1.5, 1.5)
    assert agg["giant_left_fraction"] == pytest.approx(1 - ext.xi_left, abs=1e-3)
    assert abs(agg["mean_largest_left_fraction"] - agg["giant_left_fraction"]) <= 0.03
    assert agg["max_second_largest_size"] <= 80
    assert agg["reps"] == 8


def test_sweep_connectivity_orders_by_c():
    rows = sweep_connectivity(400, 400, [0.5, 2.0], reps=30, seed=1)
    agg = {r["c"]: r for r in aggregate_connectivity_rows(rows)}
    assert agg[0.5]["p_connected"] <= 0.2
    assert agg[2.0]["p_connected"] >= 0.8
    assert agg[0.5]["expected_trees_11"] > 1.0 > agg[2.0]["expected_trees_11"]


def test_sweep_connectivity_rejects_tiny_c():
    with pytest.raises(InputError):
        sweep_connectivity(400, 400, [0.05], reps=1)


@pytest.mark.parametrize(
    "run",
    [
        lambda: sweep_connectivity(50, 50, [0.4343], reps=3),
        lambda: sweep_count_ratio([(40, 40, 40)], mc_reps=200),
    ],
    ids=["connectivity", "count-ratio"],
)
def test_sweeps_fail_on_a_unit_mean_degree_before_sampling(monkeypatch, run):
    # t == max(m, n) meets the tp precondition, but its theory has no rate:
    # the sweep must say so before it samples any replicate
    def never(*args):
        raise AssertionError("sampled before its theory was computed")

    monkeypatch.setattr(harness, "sample_tp_edges", never)
    with pytest.raises(DomainError):
        run()


def test_sweep_count_ratio_rows():
    rows = sweep_count_ratio([(50, 50, 100), (80, 80, 160)], mc_reps=0, seed=0)
    assert [r["m"] for r in rows] == [50, 80]
    for row in rows:
        assert 0.9 <= row["exact_over_asymptotic"] <= 1.1
        assert row["bracket_lo"] < 1.0 == row["bracket_hi"]


def test_count_ratio_leaves_out_an_exact_count_that_costs_too_much(monkeypatch):
    # the big-int count at (50, 50, 10^6) took 15 s before the row printed;
    # past max(m, n) * t = 10^7 it is not computed and its two cells are
    # empty, while (500, 500, 965) keeps its exact count
    computed = []

    def spy(m, n, t):
        computed.append((m, n, t))
        return count_exact_log(m, n, t)

    monkeypatch.setattr(theory, "count_exact_log", spy)
    far, near = sweep_count_ratio([(50, 50, 10**6), (500, 500, 965)], mc_reps=0)
    assert computed == [(500, 500, 965)]
    assert far["log_count_exact"] is None and far["exact_over_asymptotic"] is None
    assert far["log_count_asymptotic"] > 0
    assert near["log_count_exact"] == count_exact_log(500, 500, 965)
    assert ",," in rows_to_csv([far]).splitlines()[1]


def test_count_ratio_rows_carry_the_seed_each_point_ran_on():
    # point k runs on master seed seed + k; its row must say so, so that its
    # estimate can be regenerated from the row alone
    grid = [(20, 30, 40), (50, 50, 100), (60, 40, 90)]
    rows = sweep_count_ratio(grid, mc_reps=30, seed=2)
    assert [r["master_seed"] for r in rows] == [2, 3, 4]
    for (m, n, t), row in zip(grid, rows):
        again = estimate_distinct_probability(m, n, t, reps=30, seed=row["master_seed"],
                                              conditioned=True)
        assert (again["p_distinct"], again["se"]) == (
            row["p_distinct_conditioned"], row["p_distinct_se"]
        )


@pytest.mark.parametrize(
    "kwargs", [{"mc_reps": -1}, {"seed": -1}, {"mc_reps": -2, "seed": 3}, {"threads": 0}]
)
def test_sweep_count_ratio_rejects_bad_inputs(kwargs):
    # a negative mc_reps used to skip the Monte Carlo part, and with
    # mc_reps == 0 a negative seed was echoed as the rows' master seed
    with pytest.raises(InputError):
        sweep_count_ratio([(50, 50, 100)], **kwargs)


def test_sweep_count_ratio_samples_only_tp_points():
    # with replicates to run, t < max(m, n) breaks the tp precondition; with
    # none, the asymptotic count alone has no rate to solve
    with pytest.raises(InputError, match="t >= max"):
        sweep_count_ratio([(50, 50, 100), (50, 50, 40)], mc_reps=5)
    with pytest.raises(DomainError):
        sweep_count_ratio([(50, 50, 40)], mc_reps=0)


def test_estimate_distinct_probability_unconditioned_matches_product():
    m = n = 100
    t = 50
    exact = math.prod(1 - i / (m * n) for i in range(t))
    est = estimate_distinct_probability(m, n, t, reps=4000, seed=3)
    assert abs(est["p_distinct"] - exact) <= 3 * est["se"]


@pytest.mark.parametrize("conditioned", [True, False])
@pytest.mark.parametrize("m,n,t", [(1, 1, 1), (3, 3, 5), (5, 6, 9)])
def test_distinct_rows_of_a_block_match_one_stream_samples(m, n, t, conditioned):
    # small grids repeat edges often, so both outcomes occur
    sampler = sample_tp if conditioned else sample_gr
    rows = harness._distinct_rows(m, n, t, conditioned, split_streams(6, 0, 40))
    expected = []
    for i in range(40):
        edges = sampler(m, n, t, split_stream(6, i)).edges
        expected.append(len({tuple(e) for e in edges.tolist()}) == t)
    assert rows == expected
    if t > 1:
        assert 0 < sum(expected) < 40


def test_plain_distinct_estimate_is_pinned():
    # replicate i of the plain model draws its t codes from split_stream(seed, i)
    est = estimate_distinct_probability(1000, 1000, 1000, reps=3000, seed=5)
    assert (est["p_distinct"], est["se"]) == (0.6043333333333333, 0.008927757380879694)


def test_estimate_distinct_probability_conditioned_in_bracket():
    est = estimate_distinct_probability(100, 100, 150, reps=2000, seed=4, conditioned=True)
    lo = math.exp(-(150 / 100) * (150 / 100))
    assert est["p_distinct"] + 2 * est["se"] >= lo
    assert est["p_distinct"] <= 1.0


# ----------------------------------------------------------------------
# determinism and output
# ----------------------------------------------------------------------


GIANT_SAMPLED = ("largest_left_fraction", "largest_right_fraction", "largest_size",
                 "second_largest_size", "n_components", "master_seed", "replicate_index",
                 "m", "n", "t")
CONNECTIVITY_SAMPLED = ("connected", "master_seed", "replicate_index", "m", "n", "t", "c")


def _sweep_digest(rows, columns):
    digest = hashlib.sha256(rows_to_csv(rows).split("\n", 1)[0].encode())
    digest.update(repr([tuple(row[k] for k in columns) for row in rows]).encode())
    return digest.hexdigest()


def _tree_digest():
    datasets = [load_fixture("human_monkey"), load_fixture("human_lemur")]
    rows = run_tree_comparison(datasets, reps=137, seed=17)["rows"]
    return hashlib.sha256(repr([(r["sim_mean"], r["sim_se"]) for r in rows]).encode()).hexdigest()


def _count_ratio_digest():
    rows = sweep_count_ratio([(50, 50, 100), (30, 40, 60)], mc_reps=300, seed=2)
    return hashlib.sha256(repr([r["p_distinct_conditioned"] for r in rows]).encode()).hexdigest()


@pytest.mark.parametrize(
    "run,expected",
    [
        (lambda: _sweep_digest(sweep_giant([(300, 300, 580), (200, 300, 700)], reps=13, seed=3),
                               GIANT_SAMPLED),
         "4df07d59da33ceff889d8e17b5aa0242b494344405215455633963183d0b8986"),
        (lambda: _sweep_digest(sweep_connectivity(200, 300, [1.0, 1.5], reps=13, seed=3),
                               CONNECTIVITY_SAMPLED),
         "d609eebf5f63295c53f599f124acf6ce38a0bc201642f6444b4a8349dc8266c0"),
        (_tree_digest, "60a090c68627d617ebc98360298f11d0489994d6056ff14454140be657334cce"),
        (_count_ratio_digest, "f82de021128ad2254e0cdc8beaf041eb940aaee09ab44db90d1cf3db394a5c8c"),
    ],
    ids=["giant", "connectivity", "trees", "count-ratio"],
)
def test_experiment_outputs_are_pinned(run, expected):
    # the sampled columns, the CSV header and the replicate bookkeeping of
    # each experiment must not change; theory floats stay out, since the last
    # bit of numpy's vectorised log and exp may differ between builds
    assert run() == expected


@pytest.mark.parametrize(
    "giant_grid,conn_n,conn_c,reps",
    [
        ([(300, 300, 580)], 200, [1.5], 6),
        pytest.param([(3000, 3000, 5792), (3000, 3000, 4185)], 1000, [1.0, 1.5], 12,
                     marks=needs_pool),
    ],
    ids=["in-process", "pooled"],
)
def test_sweeps_reproduce_bit_exactly_across_thread_counts(giant_grid, conn_n, conn_c, reps):
    pooled = reps * sum(t for _, _, t in giant_grid) >= harness._POOL_MIN_EDGES
    harness._close_pool()
    giant = [sweep_giant(giant_grid, reps=reps, seed=11, threads=k) for k in (1, 2, 3)]
    assert (harness._pool is not None) == pooled
    assert giant[0] == giant[1] == giant[2]
    conn = [sweep_connectivity(conn_n, conn_n, conn_c, reps=reps, seed=11, threads=k)
            for k in (1, 2, 3)]
    assert conn[0] == conn[1] == conn[2]
    assert [r["replicate_index"] for r in conn[2]] == list(range(reps)) * len(conn_c)


def test_pooled_count_ratio_and_tree_comparison_match_in_process():
    grid = [(300, 300, 580), (500, 500, 965)]
    assert 24 * sum(t for _, _, t in grid) >= harness._POOL_MIN_EDGES
    ratios = [sweep_count_ratio(grid, mc_reps=24, seed=2, threads=k) for k in (1, 2, 3)]
    assert ratios[0] == ratios[1] == ratios[2]
    assert all("p_distinct_conditioned" in row for row in ratios[0])
    # 200 replicates of the five fixtures sample 200 * 209 edges
    assert 200 * 209 >= harness._POOL_MIN_EDGES
    reports = [run_tree_comparison(reps=200, seed=9, threads=k) for k in (1, 2, 3)]
    assert reports[0] == reports[1] == reports[2]


def _exhausted_job(rngs):
    raise AttemptsExhausted("no candidate accepted")


def _dying_job(rngs):
    os._exit(1)


def test_pooled_errors_reach_the_caller_with_their_type():
    with pytest.raises(AttemptsExhausted, match="no candidate accepted"):
        harness._run_replicates([(_exhausted_job, harness._POOL_MIN_EDGES)], 4, 0, threads=2)
    # t < max(m, n) fails inside sample_tp_edges, in a worker: 129 replicates
    # are two lock-step blocks, so two tasks
    with pytest.raises(InputError, match="t=2000 < max"):
        estimate_distinct_probability(3000, 3000, 2000, reps=129, conditioned=True, threads=2)
    grid = [(3000, 3000, 5792)]
    assert sweep_giant(grid, reps=6, seed=4, threads=2) == sweep_giant(grid, reps=6, seed=4)


@needs_pool
def test_a_dead_worker_breaks_only_the_call_it_was_running():
    from concurrent.futures.process import BrokenProcessPool

    with pytest.raises(BrokenProcessPool):
        harness._run_replicates([(_dying_job, harness._POOL_MIN_EDGES)], 4, 0, threads=2)
    assert harness._pool is None
    grid = [(3000, 3000, 5792)]
    assert sweep_giant(grid, reps=6, seed=4, threads=2) == sweep_giant(grid, reps=6, seed=4)


@pytest.mark.parametrize(
    "reps,threads,seed,message",
    [
        (-1, 1, 0, "reps must be >= 0"),
        (3, 0, 0, "threads must be >= 1"),
        (3, 1, -1, "seed must be >= 0"),
    ],
    ids=["reps", "threads", "seed"],
)
def test_run_rules_are_checked_before_any_job_runs(reps, threads, seed, message):
    calls = []
    points = [(calls.append, 10), (calls.append, 10)]
    with pytest.raises(InputError, match=message):
        harness._run_replicates(points, reps, seed, threads=threads)
    assert calls == []


def test_worker_count_is_capped_by_cpus_and_tasks():
    # a pure computation: no process is started for these values
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    assert harness._pool_workers(10**9, 10**9) == cpus
    assert harness._pool_workers(10**6, 3) == min(3, cpus)
    assert harness._pool_workers(2, 1) == 1
    assert harness._pool_workers(1, 100) == 1


def test_rows_carry_seeds_and_aggregate_is_recomputable():
    rows = sweep_giant([(300, 300, 580)], reps=5, seed=13)
    assert all(r["master_seed"] == 13 for r in rows)
    assert sorted(r["replicate_index"] for r in rows) == list(range(5))
    agg = aggregate_giant_rows(rows)[0]
    manual = np.mean([r["largest_left_fraction"] for r in rows])
    assert agg["mean_largest_left_fraction"] == pytest.approx(manual, rel=1e-15)


def test_connectivity_aggregate_keeps_sizes_apart_at_one_c():
    # rows of (200, 200) and (300, 300) at c = 1.0 merged into one row
    # labelled with the first size's m, n and t
    rows = sweep_connectivity(200, 200, [1.0], reps=3, seed=5)
    rows += sweep_connectivity(300, 300, [1.0], reps=4, seed=6)
    agg = aggregate_connectivity_rows(rows)
    assert [(r["m"], r["n"], r["c"], r["reps"], r["master_seed"]) for r in agg] == [
        (200, 200, 1.0, 3, 5),
        (300, 300, 1.0, 4, 6),
    ]
    assert agg[0]["t"] < agg[1]["t"]


@pytest.mark.parametrize(
    "sweep,aggregate,key,raw,mean",
    [
        (lambda seed: sweep_giant([(300, 300, 580), (200, 300, 700)], reps=3, seed=seed),
         aggregate_giant_rows, ("m", "n", "t"), "largest_left_fraction",
         "mean_largest_left_fraction"),
        (lambda seed: sweep_connectivity(200, 200, [1.5, 0.8], reps=3, seed=seed),
         aggregate_connectivity_rows, ("c",), "connected", "p_connected"),
    ],
    ids=["giant", "connectivity"],
)
def test_aggregates_pool_equal_points_across_calls(sweep, aggregate, key, raw, mean):
    # the benchmark pools the rows of many sweep calls on one grid and reads
    # one aggregate row per point from them, in sorted point order, each
    # giving the first pooled row's master seed
    rows = sweep(10) + sweep(20)
    agg = aggregate(rows)
    points = sorted({tuple(r[k] for k in key) for r in rows})
    assert [tuple(r[k] for k in key) for r in agg] == points
    for point, row in zip(points, agg):
        group = [r for r in rows if tuple(r[k] for k in key) == point]
        assert row["reps"] == len(group) == 6
        assert row["master_seed"] == group[0]["master_seed"]
        assert row[mean] == pytest.approx(np.mean([r[raw] for r in group]), rel=1e-15)


def test_rows_to_csv_stable_columns():
    rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5, "c": "x"}]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2.5,"
    assert rows_to_csv([]) == ""
