import math
import os

import numpy as np
import pytest

from oxgrid import harness
from oxgrid.errors import AttemptsExhausted, InputError
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
from oxgrid.theory import expected_trees_exact, extinction_probabilities

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


def test_tree_comparison_replicates_run_on_their_own_streams():
    # 257 replicates run as lock-step blocks of 85, 86 and 86; each must
    # count the trees of sample_tp on split_stream(seed + dataset, i)
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
    # 137 replicates split unevenly at every cap but 1: 20 blocks of 6-7 at
    # a cap of 7, 68 + 69 at the default
    datasets = [load_fixture(name) for name in ("human_monkey", "human_lemur")]
    reports = []
    for cap in (1, 7, harness._LOCK_STEP_CAP):
        monkeypatch.setattr(harness, "_LOCK_STEP_CAP", cap)
        reports.append(run_tree_comparison(datasets, reps=137, seed=17))
    assert reports[0] == reports[1] == reports[2]


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


def test_tree_comparison_runs_250_replicates_as_two_blocks(monkeypatch):
    # the per-round cost of a block is mostly fixed, so 250 replicates must
    # run as 125 + 125, not as blocks of 32
    sizes = []

    def counting(m, n, t, rngs):
        sizes.append(len(rngs))
        return sample_tp_edges(m, n, t, rngs)

    monkeypatch.setattr(harness, "sample_tp_edges", counting)
    run_tree_comparison(reps=250, seed=3)
    assert sizes == [125, 125] * len(fixture_names())


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


def test_sweep_count_ratio_rows():
    rows = sweep_count_ratio([(50, 50, 100), (80, 80, 160)], mc_reps=0, seed=0)
    assert [r["m"] for r in rows] == [50, 80]
    for row in rows:
        assert 0.9 <= row["exact_over_asymptotic"] <= 1.1
        assert row["bracket_lo"] < 1.0 == row["bracket_hi"]


@pytest.mark.parametrize(
    "kwargs", [{"mc_reps": -1}, {"seed": -1}, {"mc_reps": -2, "seed": 3}, {"threads": 0}]
)
def test_sweep_count_ratio_rejects_bad_inputs(kwargs):
    # a negative mc_reps used to skip the Monte Carlo part, and with
    # mc_reps == 0 a negative seed was echoed as the rows' master seed
    with pytest.raises(InputError):
        sweep_count_ratio([(50, 50, 100)], **kwargs)


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
    assert [r["distinct"] for r in rows] == [int(d) for d in expected]
    if t > 1:
        assert 0 < sum(expected) < 40


def test_estimate_distinct_probability_conditioned_in_bracket():
    est = estimate_distinct_probability(100, 100, 150, reps=2000, seed=4, conditioned=True)
    lo = math.exp(-(150 / 100) * (150 / 100))
    assert est["p_distinct"] + 2 * est["se"] >= lo
    assert est["p_distinct"] <= 1.0


# ----------------------------------------------------------------------
# determinism and output
# ----------------------------------------------------------------------


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
        harness._run_replicates([(_exhausted_job, harness._POOL_MIN_EDGES, 0)], 4, threads=2)
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
        harness._run_replicates([(_dying_job, harness._POOL_MIN_EDGES, 0)], 4, threads=2)
    assert harness._pool is None
    grid = [(3000, 3000, 5792)]
    assert sweep_giant(grid, reps=6, seed=4, threads=2) == sweep_giant(grid, reps=6, seed=4)


@pytest.mark.parametrize(
    "reps,threads,seeds,message",
    [
        (-1, 1, (0,), "reps must be >= 0"),
        (3, 0, (0,), "threads must be >= 1"),
        (3, 1, (2, -1), "seed must be >= 0"),
    ],
    ids=["reps", "threads", "seed"],
)
def test_run_rules_are_checked_before_any_job_runs(reps, threads, seeds, message):
    calls = []
    points = [(calls.append, 10, seed) for seed in seeds]
    with pytest.raises(InputError, match=message):
        harness._run_replicates(points, reps, threads=threads)
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


def test_rows_to_csv_stable_columns():
    rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": 4.5, "c": "x"}]
    text = rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "a,b,c"
    assert lines[1] == "1,2.5,"
    assert rows_to_csv([]) == ""
