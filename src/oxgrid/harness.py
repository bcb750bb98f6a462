"""Seeded Monte Carlo experiment runner.

Every experiment takes a master seed; replicate ``i`` always runs on
``split_stream(seed, i)``, so results are bit-reproducible whatever
``threads`` is and any aggregate can be recomputed from the raw
per-replicate rows. Rows are plain dicts with stable column names, ready
for CSV or JSON.

Every experiment hands its replicates to :func:`_run_replicates` with its
one master seed, as one point ``(job, t)`` per grid point or dataset: a job
that maps a block of streams to one plain value per replicate, and the edge
count t of each replicate. Point k runs on master seed ``seed + k``; that
function alone applies this rule and returns each point's seed with its
values, and it checks reps >= 0, threads >= 1 and seed >= 0 on every call
(``ExperimentConfig`` also rejects a negative reps or seed as it loads).
Every sweep checks the ``tp`` precondition of the points it samples and
computes their theory before anything is sampled. The giant and
connectivity sweeps are one per-point column builder each; :func:`_sweep`
checks reps >= 1, runs their points and builds their raw rows. Their
aggregates reduce the rows of each point, grouped in one pass by
:func:`_aggregate`: rows of equal point pool into one row, whichever call
made them.

Replicates run in lock-step blocks of consecutive indices, one rule for
every experiment: each point's replicates are cut into the fewest blocks of
near-equal size under a cap of ``_LOCK_STEP_CAP`` replicates and
``_BLOCK_EDGES`` sampled edges. With ``threads`` > 1 a call hands all of its
blocks, over every point, to one persistent pool of up to ``threads``
worker processes in one map, the points of the largest t first, and merges
the rows back in index order; a pooled call's points are cut into at least
one block per worker. The pool is started on the first such call and kept
for the next. A replicate is dozens of small numpy calls that hold the
interpreter lock, so threads would not overlap them. A call whose
replicates sample fewer than ``_POOL_MIN_EDGES`` edges in all runs
in-process, as with ``threads=1``: there the pool's per-task cost
outweighs the gain.

A block of ``tp`` graphs is sampled with one :func:`sample_tp_edges` call:
its streams draw one batch each per round, and one inverse-CDF lookup maps
them all, on short sides and long ones. A round of a block costs about the
same whatever its size, so 250 tree replicates run as 125 + 125, and 6
giant replicates at 3000 vertices a side run as one block.
The tree comparison then counts every replicate's trees with one labelling
of the block's disjoint union, the conditioned distinct-edge estimates test
every replicate's edges for repeats with one sort, and the giant and
connectivity sweeps label each graph on its own, the connectivity sweep
only until a complete component shows the graph is split. Each replicate
still draws from its own stream exactly what it would draw alone, so its
graph does not depend on the block size or the worker count; drawing a
block from one shared stream would tie every replicate's graph to both.
"""

from __future__ import annotations

import atexit
import csv
import io
import math
import numbers
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Sequence

import numpy as np

from . import theory
from .errors import InputError
from .generators import _check_min_degree, _gr_codes, sample_tp_edges
# perfbench/layers.py looks sample_tp and split_stream up here to trace
# them, and perfbench/run.py checks that sample_tp is the generators' own
from .generators import sample_tp  # noqa: F401
from .graph import BipartiteMultigraph, block_tree_census, components, is_connected, tree_census
from .ingest import Dataset, fixture_names, load_fixture
from .rng import split_stream, split_streams  # noqa: F401

__all__ = [
    "ExperimentConfig",
    "run_tree_comparison",
    "sweep_giant",
    "sweep_connectivity",
    "sweep_count_ratio",
    "estimate_distinct_probability",
    "aggregate_giant_rows",
    "aggregate_connectivity_rows",
    "rows_to_csv",
]

RELATIVE_TOLERANCE = 0.03  # published-vs-recomputed agreement threshold
# most replicates per lock-step block. A round of a block costs about 20
# numpy calls however many streams it holds, so a few large blocks beat many
# small ones. On a 2-vCPU VM shared with other tenants, 250 replicates of each
# genome fixture took, against blocks of 32, about 25% less CPU time at a
# cap of 64, 30-45% less at 128 and 40-50% less at 256 (4 alternated rounds
# of 40 such units in one process), and the process peaked at 38.3, 38.5,
# 39.0 and 40.1 MB. 128 runs them as 125 + 125 for 0.7 MB above blocks of
# 32, where 256 costs 1.8 MB
_LOCK_STEP_CAP = 128
# most sampled edges (the sum of t over its replicates) per lock-step block,
# under the cap above. A block's arrays take about 33 bytes per edge
# (tracemalloc peak of a giant or connectivity block job, sampling and
# labelling), so this bounds a block near 9 MB. On a 2-vCPU VM shared with
# other tenants, sample_tp_edges cost least per graph near this many edges
# in blocks of 1 to 90 (4 alternated rounds each): at t = 5787, 0.55 ms in
# blocks of 45 against 0.97 alone and 0.68 in blocks of 90; at t = 13,270,
# 0.92 ms in blocks of 19 against 0.98 in blocks of 38; at t = 36,841,
# 1.52 ms in blocks of 7 against 1.95 alone and 1.92 in blocks of 28, where
# a block of 100 would take some 120 MB
_BLOCK_EDGES = 1 << 18
# sampled edges (the sum of t over a call's replicates) below which a call
# runs in-process whatever ``threads`` asks. On a 2-vCPU VM shared with other
# tenants, in seven sets of 16-20 alternated pairs of one-point giant sweeps
# against a warm 2-worker pool, the pool lost most pairs at 240 and 3,480
# edges in six sets. At 19,000-23,000 edges it won 0-14 of 16. From 27,000
# up it won 13-16 of 16 in the two sets with the second vCPU mostly free,
# and about half the pairs, at 69,504 edges too, while other tenants kept it
# busy. A task costs the pool about 0.5 ms of hand-off
_POOL_MIN_EDGES = 30_000

_pool = None  # (worker count, ProcessPoolExecutor) once a call has pooled


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass
class ExperimentConfig:
    """Sweep description as read from a CLI config file."""

    kind: str  # "giant" | "connectivity" | "count-ratio"
    grid: list = field(default_factory=list)
    reps: int = 1
    seed: int = 0
    m: int | None = None
    n: int | None = None

    def __post_init__(self):
        if self.kind not in ("giant", "connectivity", "count-ratio"):
            raise InputError(f"unknown sweep kind {self.kind!r}")
        for name in ("reps", "seed", "m", "n"):
            value = getattr(self, name)
            if not (_is_int(value) or (value is None and name in ("m", "n"))):
                raise InputError(f"{name} must be an integer, got {value!r}")
        if self.reps < 0:
            raise InputError("reps must be >= 0")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if self.kind == "connectivity" and (self.m is None or self.n is None):
            raise InputError("connectivity sweep config needs m and n")
        if self.kind != "connectivity" and (self.m is not None or self.n is not None):
            raise InputError(f"m and n belong to connectivity configs; a {self.kind} config "
                             "takes its sizes from its grid")
        if not isinstance(self.grid, (list, tuple)) or not self.grid:
            raise InputError("grid must be a non-empty list")
        for point in self.grid:
            if self.kind == "connectivity":
                finite = isinstance(point, numbers.Real) and math.isfinite(point)
                if isinstance(point, bool) or not finite:
                    raise InputError(f"connectivity grid values must be finite numbers, "
                                     f"got {point!r}")
            elif not (
                isinstance(point, (list, tuple)) and len(point) == 3 and all(map(_is_int, point))
            ):
                raise InputError(f"{self.kind} grid points must be [m, n, t] integers, "
                                 f"got {point!r}")

    @classmethod
    def from_dict(cls, data: object) -> "ExperimentConfig":
        """The config a decoded JSON value describes. Raises InputError for
        a value that is not an object with a ``kind``, or that has keys the
        config does not take."""
        if not isinstance(data, dict) or "kind" not in data:
            raise InputError("a sweep config is a JSON object with a kind")
        unknown = set(data) - {"kind", "grid", "reps", "seed", "m", "n"}
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def _mean_se(values: Sequence[float]) -> tuple[float | None, float | None]:
    """Mean and standard error of ``values``, each None where undefined: the
    mean of no value and the standard error of fewer than two."""
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean()) if arr.size else None
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else None
    return mean, se


def _proportion(hits: int, reps: int) -> tuple[float, float]:
    """Share of hits and its binomial standard error, the variance floored
    at 1/reps so that a share of 0 or 1 keeps a non-zero error."""
    p_hat = hits / reps
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / reps) / reps)


def _pool_workers(threads: int, replicates: int) -> int:
    """Worker processes for a pooled call: no more than ``threads``, the
    CPUs this process may run on, or the call's replicates."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(threads, cpus, replicates))


def _close_pool() -> None:
    """Stop the pool's workers and drop the pool. Also run at exit, while
    the modules the pool's clean-up needs are still loaded."""
    global _pool
    if _pool is not None:
        _pool[1].shutdown()
        _pool = None


atexit.register(_close_pool)


def _executor(workers: int):
    """The persistent process pool, started on first use and replaced only
    when the worker count changes. Workers fork where the platform can, so
    they start in tens of milliseconds, against hundreds for a fresh
    interpreter, with the parent's warm sampler tables. They fork at the
    pool's first submit, before the pool starts a thread of its own."""
    global _pool
    if _pool is not None and _pool[0] != workers:
        _close_pool()
    if _pool is None:
        # imported here: a run that never pools does not pay for it
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        fork = "fork" in multiprocessing.get_all_start_methods()
        context = multiprocessing.get_context("fork" if fork else None)
        _pool = (workers, ProcessPoolExecutor(workers, mp_context=context))
    return _pool[1]


def _block_bounds(reps: int, cap: int) -> list[int]:
    """Where the ``ceil(reps / cap)`` blocks of replicates 0..reps-1 start,
    then ``reps``: block k starts at ``k * reps // blocks``, so sizes differ
    by at most one and none exceeds ``cap``. ``[0]`` for no replicates."""
    blocks = -(-reps // cap)
    return [k * reps // blocks for k in range(blocks)] + [reps]


def _run_block(
    job: Callable[[list[np.random.Generator]], list], seed: int, start: int, stop: int
) -> list:
    """Values of replicates start..stop-1 of master seed ``seed``, whose
    streams are derived together."""
    return job(split_streams(seed, start, stop))


def _block_cap(t: int) -> int:
    """Most replicates of t edges each in one lock-step block."""
    return min(_LOCK_STEP_CAP, max(1, _BLOCK_EDGES // max(t, 1)))


def _run_replicates(
    points: Sequence[tuple[Callable[[list[np.random.Generator]], list], int]],
    reps: int,
    seed: int,
    threads: int = 1,
) -> list[tuple[int, list]]:
    """For the k-th ``(job, t)`` of ``points``, its master seed ``seed + k``
    and the values of its replicates 0..reps-1 in index order: this is the
    one place a point's master seed is derived, and callers take it from
    here. A job maps the streams of a block of consecutive replicates to one
    picklable value each, and must itself be picklable: a module-level
    function or a ``partial`` of one. Each point's replicates are cut by
    :func:`_block_bounds` under :func:`_block_cap` of its t. Replicate i of
    point k runs on ``split_stream(seed + k, i)`` whatever the block and
    worker counts. Blocks run by descending t, a point's blocks in index
    order. With ``threads`` > 1 and at least ``_POOL_MIN_EDGES`` edges over
    all replicates, t each, every block goes to the process pool in one map,
    and each point's cap is also at most its even share of the replicates
    over the workers, so that the pool gets a block for each worker. Raises
    InputError for reps < 0, threads < 1 or seed < 0 before any replicate
    runs; ``ExperimentConfig`` also checks a loaded config's reps and seed."""
    if reps < 0:
        raise InputError(f"reps must be >= 0, got {reps}")
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    workers = 1
    if threads > 1 and reps * sum(t for _, t in points) >= _POOL_MIN_EDGES:
        workers = _pool_workers(threads, reps * len(points))
    # one block per point would leave a one-point sweep on one worker: on a
    # 2-vCPU VM, 45 giant replicates at (3000, 3000, 5792) took 72 ms as
    # one block against 56 ms as 22 + 23 (medians of 10 alternated runs)
    share = max(1, -(-reps * len(points) // workers))
    tasks, owners = [], []  # each block and the index of its point
    # longest first (Graham's LPT rule): a pool's workers take blocks in
    # map order, so the short blocks fill in behind the long ones
    for k in sorted(range(len(points)), key=lambda k: -points[k][1]):
        job, t = points[k]
        bounds = _block_bounds(reps, min(_block_cap(t), share))
        tasks += [(job, seed + k, *span) for span in zip(bounds, bounds[1:])]
        owners += [k] * (len(bounds) - 1)
    if workers == 1:
        blocks = [_run_block(*task) for task in tasks]
    else:
        from concurrent.futures.process import BrokenProcessPool

        try:
            blocks = list(_executor(workers).map(_run_block, *zip(*tasks)))
        except BrokenProcessPool:
            _close_pool()  # a worker died; the next call starts a new pool
            raise
    per_point = [(seed + k, []) for k in range(len(points))]
    for k, values in zip(owners, blocks):
        per_point[k][1].extend(values)
    return per_point


def _sweep(
    job: Callable[..., list[dict]],
    columns: Sequence[dict],
    reps: int,
    seed: int,
    threads: int,
) -> list[dict]:
    """Raw rows of a replicated sweep with one point per dict of
    ``columns``, which holds the point's m, n and t. Point k samples its
    replicates with ``partial(job, m, n, t)`` on the master seed that
    :func:`_run_replicates` gives it, and replicate i's row is the one the
    job returns, then ``master_seed`` and ``replicate_index`` i, then the
    point's ``columns``. Raises InputError for reps < 1."""
    if reps < 1:
        raise InputError("replicated sweeps need reps >= 1")
    sims = _run_replicates(
        [(partial(job, c["m"], c["n"], c["t"]), c["t"]) for c in columns], reps, seed, threads
    )
    return [
        {**row, "master_seed": point_seed, "replicate_index": i, **extra}
        for extra, (point_seed, point_rows) in zip(columns, sims)
        for i, row in enumerate(point_rows)
    ]


def _aggregate(
    rows: Iterable[dict], key: Sequence[str], summary: Callable[[list[dict]], dict]
) -> list[dict]:
    """``summary`` of each group of ``rows`` that agree on the ``key``
    columns, one pass over the rows, the groups in sorted key order."""
    groups: dict[tuple, list[dict]] = {}
    for row in rows:
        groups.setdefault(tuple(row[k] for k in key), []).append(row)
    return [summary(groups[k]) for k in sorted(groups)]


# ----------------------------------------------------------------------
# Expected-vs-observed tree counts on the genome fixtures
# ----------------------------------------------------------------------


def _tree_rows(
    m: int, n: int, t: int, shapes: Sequence[tuple[int, int]], rngs: list[np.random.Generator]
) -> list[list[int]]:
    """Per stream, the tree count of each shape in ``sample_tp(m, n, t, rng)``,
    the streams run as one lock-step block."""
    edges = sample_tp_edges(m, n, t, rngs)
    max_i = max(i for i, _ in shapes)
    max_j = max(j for _, j in shapes)
    rows, cols = zip(*shapes)
    return block_tree_census(m, n, edges, max_i, max_j)[:, rows, cols].tolist()


def run_tree_comparison(
    datasets: Iterable[Dataset] | None = None,
    reps: int = 0,
    seed: int = 0,
    shapes: Sequence[tuple[int, int]] = ((1, 1), (2, 1), (1, 2)),
    threads: int = 1,
) -> dict:
    """Per dataset and tree shape: recomputed expectation, published
    expectation, observed counts, Poisson tail probability of the observed
    count, and (when reps > 0) a simulated mean under the configuration model.

    Rates are recomputed from the published (m, n, t); published rates and
    expectations that disagree beyond 3 percent are flagged, not adopted.

    Replicate i of dataset d counts the trees of the graph that
    ``sample_tp(m, n, t, split_stream(seed + d, i))`` returns, dataset d
    being point d of :func:`_run_replicates`. The replicates run in
    near-equal lock-step blocks (:func:`sample_tp_edges` and
    :func:`block_tree_census`), the blocks of all datasets on the process
    pool when ``threads`` > 1; every stream stays with its replicate, so the
    report is the same for every ``threads``. With one replicate ``sim_se``
    is None, as ``sim_mean`` is with none. Raises InputError for reps < 0,
    seed < 0 or threads < 1.
    """
    if datasets is None:
        datasets = [load_fixture(name) for name in fixture_names()]
    datasets = list(datasets)
    sizes = [
        tuple((ds.published or {}).get(k, getattr(ds.graph, k)) for k in ("m", "n", "t"))
        for ds in datasets
    ]
    sims = _run_replicates(
        [(partial(_tree_rows, m, n, t, shapes), t) for m, n, t in sizes], reps, seed, threads
    )
    shape_i, shape_j = np.array(shapes).T
    max_i = int(shape_i.max())
    max_j = int(shape_j.max())
    rows: list[dict] = []
    flags: list[str] = []
    for ds, (m, n, t), (_, raw) in zip(datasets, sizes, sims):
        pub = ds.published or {}
        left, right = theory._side_rates(m, n, t)
        observed = tree_census(components(ds.graph), max_i, max_j)
        expected = theory.expected_trees(shape_i, shape_j, m, n, t)
        sim = np.array(raw, dtype=np.int64).reshape(reps, len(shapes))
        for (i, j), ea, sim_counts in zip(shapes, expected.tolist(), sim.T):
            key = f"{i},{j}"
            sim_mean, sim_se = _mean_se(sim_counts)
            ea_pub = pub.get("expected_trees", {}).get(key)
            obs_pub = pub.get("observed_trees", {}).get(key)
            obs = int(observed[i, j])
            tail = (
                theory.poisson_tail(ea, 0, "eq")
                if obs == 0
                else theory.poisson_tail(ea, obs, "ge")
            )
            flagged = (
                ea_pub is not None
                and abs(ea - ea_pub) > RELATIVE_TOLERANCE * max(ea_pub, 1e-12)
            )
            if flagged:
                flags.append(
                    f"{ds.name} shape ({i},{j}): recomputed expectation {ea:.3f} "
                    f"vs published {ea_pub} (beyond {RELATIVE_TOLERANCE:.0%})"
                )
            rows.append(
                {
                    "dataset": ds.name,
                    "m": m,
                    "n": n,
                    "t": t,
                    "left_rate": left.rate,
                    "right_rate": right.rate,
                    "rate_product": left.rate * right.rate,
                    "shape": key,
                    "expected_recomputed": ea,
                    "expected_published": ea_pub,
                    "observed": obs,
                    "observed_published": obs_pub,
                    "poisson_tail": tail,
                    "sim_mean": sim_mean,
                    "sim_se": sim_se,
                    "published_mismatch": flagged,
                }
            )
    return {"seed": seed, "reps": reps, "rows": rows, "flags": flags}


# ----------------------------------------------------------------------
# Giant-component sweep
# ----------------------------------------------------------------------


def _giant_rows(m: int, n: int, t: int, rngs: list[np.random.Generator]) -> list[dict]:
    """Per stream, the largest components of ``sample_tp(m, n, t, rng)``,
    the streams sampled as one lock-step block."""
    rows = []
    for edges in sample_tp_edges(m, n, t, rngs):
        summary = components(BipartiteMultigraph(m, n, edges))
        big = summary.largest
        rows.append(
            {
                "largest_left_fraction": int(summary.left[big]) / m,
                "largest_right_fraction": int(summary.right[big]) / n,
                "largest_size": summary.largest_size,
                "second_largest_size": summary.second_largest_size,
                "n_components": summary.n_components,
            }
        )
    return rows


def sweep_giant(
    grid: Sequence[tuple[int, int, int]],
    reps: int,
    seed: int = 0,
    threads: int = 1,
) -> list[dict]:
    """Raw per-replicate rows: largest-component side fractions and sizes
    for each (m, n, t) grid point, plus the analytic giant fractions. A point
    needs t > max(m, n): InputError for reps < 1 or a point that breaks the
    ``tp`` precondition, DomainError at t == max(m, n) (a mean degree of 1),
    all before any replicate runs."""
    columns = []
    for m, n, t in grid:
        _check_min_degree(m, n, t)
        left, right = theory._side_rates(m, n, t)
        ext = theory.extinction_probabilities(left.rate, right.rate)
        columns.append(
            dict(
                m=m,
                n=n,
                t=t,
                rate_product=left.rate * right.rate,
                giant_left_fraction=1.0 - ext.xi_left,
                giant_right_fraction=1.0 - ext.xi_right,
            )
        )
    return _sweep(_giant_rows, columns, reps, seed, threads)


def _giant_summary(group: list[dict]) -> dict:
    """One aggregate row of the raw rows of one giant point."""
    lf, lf_se = _mean_se([r["largest_left_fraction"] for r in group])
    rf, rf_se = _mean_se([r["largest_right_fraction"] for r in group])
    return {
        "m": group[0]["m"],
        "n": group[0]["n"],
        "t": group[0]["t"],
        "reps": len(group),
        "master_seed": group[0]["master_seed"],
        "rate_product": group[0]["rate_product"],
        "giant_left_fraction": group[0]["giant_left_fraction"],
        "giant_right_fraction": group[0]["giant_right_fraction"],
        "mean_largest_left_fraction": lf,
        "se_largest_left_fraction": lf_se,
        "mean_largest_right_fraction": rf,
        "se_largest_right_fraction": rf_se,
        "max_largest_size": max(r["largest_size"] for r in group),
        "max_second_largest_size": max(r["second_largest_size"] for r in group),
    }


def aggregate_giant_rows(rows: list[dict]) -> list[dict]:
    """One row per (m, n, t), in sorted order: empirical means and standard
    errors. Rows of equal (m, n, t) pool into one row, whichever sweep call
    made them, and the row gives the first one's ``master_seed``."""
    return _aggregate(rows, ("m", "n", "t"), _giant_summary)


# ----------------------------------------------------------------------
# Connectivity sweep
# ----------------------------------------------------------------------


def _connectivity_rows(m: int, n: int, t: int, rngs: list[np.random.Generator]) -> list[dict]:
    """Per stream, whether ``sample_tp(m, n, t, rng)`` is connected, the
    streams sampled as one lock-step block."""
    return [
        {"connected": int(is_connected(BipartiteMultigraph(m, n, edges)))}
        for edges in sample_tp_edges(m, n, t, rngs)
    ]


def sweep_connectivity(
    m: int,
    n: int,
    c_grid: Sequence[float],
    reps: int,
    seed: int = 0,
    threads: int = 1,
) -> list[dict]:
    """Raw per-replicate connectivity flags across a grid of the
    connectivity parameter c, with the finite-size obstruction (expected
    (1,1)-tree count) attached to every row. Raises InputError for reps < 1
    or a c whose edge count breaks the ``tp`` precondition, and DomainError
    for a c whose edge count is max(m, n) (a mean degree of 1), all before
    any replicate runs."""
    columns = []
    for c in c_grid:
        t = theory.connectivity_edge_count(m, n, c)
        _check_min_degree(m, n, t)
        columns.append(
            dict(m=m, n=n, t=t, c=c, expected_trees_11=theory.expected_trees(1, 1, m, n, t))
        )
    return _sweep(_connectivity_rows, columns, reps, seed, threads)


def _connectivity_summary(group: list[dict]) -> dict:
    """One aggregate row of the raw rows of one connectivity point."""
    p_hat, se = _proportion(sum(r["connected"] for r in group), len(group))
    return {
        "m": group[0]["m"],
        "n": group[0]["n"],
        "t": group[0]["t"],
        "c": group[0]["c"],
        "reps": len(group),
        "master_seed": group[0]["master_seed"],
        "p_connected": p_hat,
        "se": se,
        "expected_trees_11": group[0]["expected_trees_11"],
    }


def aggregate_connectivity_rows(rows: list[dict]) -> list[dict]:
    """One row per (m, n, t, c), in sorted order, so by c at one (m, n):
    empirical connection probability with binomial SE. Rows of equal
    (m, n, t, c) pool into one row, whichever sweep call made them, and the
    row gives the first one's ``master_seed``."""
    return _aggregate(rows, ("m", "n", "t", "c"), _connectivity_summary)


# ----------------------------------------------------------------------
# Count-ratio sweep and distinct-edge estimates
# ----------------------------------------------------------------------


def _distinct_rows(
    m: int, n: int, t: int, conditioned: bool, rngs: list[np.random.Generator]
) -> list[bool]:
    """Per stream, whether the t edge slots of one sample are distinct; the
    conditioned samples are drawn as one lock-step block."""
    if conditioned:
        codes = sample_tp_edges(m, n, t, rngs) @ np.array([n, 1])  # left * n + right
    else:
        codes = np.stack([_gr_codes(m, n, t, rng) for rng in rngs])
    codes.sort(axis=1)
    return (np.diff(codes, axis=1) != 0).all(axis=1).tolist()


def estimate_distinct_probability(
    m: int,
    n: int,
    t: int,
    reps: int,
    seed: int = 0,
    conditioned: bool = False,
    threads: int = 1,
) -> dict:
    """Monte Carlo estimate of P(all t edge slots distinct), either in the
    plain with-replacement model or (conditioned=True) given minimum degree 1
    via the configuration model."""
    if reps < 1:
        raise InputError(f"reps must be >= 1, got {reps}")
    ((_, raw),) = _run_replicates(
        [(partial(_distinct_rows, m, n, t, conditioned), t)], reps, seed, threads
    )
    p_hat, se = _proportion(sum(raw), reps)
    return {
        "m": m,
        "n": n,
        "t": t,
        "reps": reps,
        "seed": seed,
        "conditioned": conditioned,
        "p_distinct": p_hat,
        "se": se,
    }


def sweep_count_ratio(
    grid: Sequence[tuple[int, int, int]],
    mc_reps: int = 0,
    seed: int = 0,
    threads: int = 1,
) -> list[dict]:
    """Per (m, n, t): exact and asymptotic log counts and their ratio; with
    mc_reps > 0 also the conditioned distinct-edge probability against its
    analytic bracket. Each row gives the master seed its point ran on, on
    which its replicates run as :func:`estimate_distinct_probability` would
    draw them. Every row's theory is computed before any replicate runs, so
    a point at t == max(m, n) raises DomainError before sampling. Raises
    InputError for mc_reps < 0, seed < 0, threads < 1 or, with mc_reps > 0,
    a point that breaks the ``tp`` precondition."""
    columns = []
    for m, n, t in grid:
        if mc_reps > 0:
            _check_min_degree(m, n, t)
        exact = theory.count_exact_log(m, n, t)
        asym = theory.count_asymptotic_log(m, n, t)
        lo, hi = theory.distinct_ratio_bracket(m, n, t)
        columns.append(
            {
                "log_count_exact": exact,
                "log_count_asymptotic": asym,
                "exact_over_asymptotic": math.exp(exact - asym),
                "bracket_lo": lo,
                "bracket_hi": hi,
                "birthday_factor": theory.birthday_factor(m, n, t),
            }
        )
    sims = _run_replicates(
        [(partial(_distinct_rows, m, n, t, True), t) for m, n, t in grid], mc_reps, seed, threads
    )
    rows = []
    for (m, n, t), extra, (point_seed, raw) in zip(grid, columns, sims):
        row = {"m": m, "n": n, "t": t, "master_seed": point_seed, **extra}
        if raw:  # no estimate at mc_reps = 0, where the run rules are still checked
            row["p_distinct_conditioned"], row["p_distinct_se"] = _proportion(sum(raw), mc_reps)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# Output helpers
# ----------------------------------------------------------------------


def rows_to_csv(rows: list[dict]) -> str:
    """Render rows as CSV with the union of their columns, in first-seen order."""
    if not rows:
        return ""
    columns: list[str] = []
    for row in rows:
        for key in row:
            if key not in columns:
                columns.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()
