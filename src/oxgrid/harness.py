"""Seeded Monte Carlo experiment runner.

Every experiment takes a master seed; replicate ``i`` always runs on
``split_stream(seed, i)``, so results are bit-reproducible whatever
``threads`` is and any aggregate can be recomputed from the raw
per-replicate rows. Rows are plain dicts with stable column names, ready
for CSV or JSON.

Replicates run in blocks of consecutive indices. With ``threads`` > 1 a
call hands all of its blocks, over every grid point or dataset, to one
persistent pool of up to ``threads`` worker processes in one map, and
merges the rows back in index order. The pool is started on the first such
call and kept for the next. A replicate is dozens of small numpy calls
that hold the interpreter lock, so threads would not overlap them. A call
that samples fewer than ``_POOL_MIN_EDGES`` edges in all runs in-process,
as with ``threads=1``: there the pool's per-task cost outweighs the gain.

The sweeps use blocks of one. The tree comparison's replicates are tiny
graphs whose cost is numpy's fixed cost per call, so it runs blocks of
``_TREE_BLOCK`` in lock-step: the block's streams draw one batch each, one
inverse-CDF lookup maps them all, and one labelling of the block's
disjoint union counts every replicate's trees. Each replicate still draws
from its own stream exactly what it would draw alone, so its graph does not
depend on the block size or the worker count; drawing a block from one
shared stream would tie every replicate's graph to both.
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
from .generators import sample_gr, sample_tp, sample_tp_edges
from .graph import block_tree_census, components, is_connected, tree_census
from .ingest import Dataset, fixture_names, load_fixture
# perfbench/layers.py looks split_stream up here to trace it
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
# replicates per lock-step block of the tree comparison. On a 2-vCPU VM,
# blocks of 32 ran the genome fixtures' comparison 3-4 times as fast as
# single replicates and blocks of 64 only 10-20% faster still, while the
# peak RSS of 240 comparisons in a row rose 0.8-1.0 MB above single
# replicates at 32 and 1.6 MB at 64
_TREE_BLOCK = 32
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
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {"kind", "grid", "reps", "seed", "m", "n"}
        unknown = set(data) - known
        if unknown:
            raise InputError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def _mean_se(values: Sequence[float]) -> tuple[float, float]:
    arr = np.asarray(values, dtype=float)
    if arr.size <= 1:
        return float(arr.mean()) if arr.size else math.nan, math.nan
    return float(arr.mean()), float(arr.std(ddof=1) / math.sqrt(arr.size))


def _proportion(hits: int, reps: int) -> tuple[float, float]:
    """Share of hits and its binomial standard error, the variance floored
    at 1/reps so that a share of 0 or 1 keeps a non-zero error."""
    p_hat = hits / reps
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / reps) / reps)


def _pool_workers(threads: int, tasks: int) -> int:
    """Worker processes for a pooled call: no more than ``threads``, the
    CPUs this process may run on, or the call's tasks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(threads, cpus, tasks))


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


def _run_block(
    job: Callable[[list[np.random.Generator]], list[dict]], seed: int, start: int, stop: int
) -> list[dict]:
    """Rows of replicates start..stop-1 of master seed ``seed``, whose
    streams are derived together."""
    rows = job(split_streams(seed, start, stop))
    for i, row in zip(range(start, stop), rows):
        row["master_seed"] = seed
        row["replicate_index"] = i
    return rows


def _run_replicates(
    points: Sequence[tuple[Callable[[list[np.random.Generator]], list[dict]], int]],
    reps: int,
    edges: int,
    threads: int = 1,
    block: int = 1,
) -> list[list[dict]]:
    """For each ``(job, seed)`` of ``points``, the rows of its replicates
    0..reps-1 in index order. A job maps the streams of up to ``block``
    consecutive replicates to one picklable row each, and must itself be
    picklable: a module-level function or a ``partial`` of one. Replicate i
    of a point runs on ``split_stream(seed, i)`` whatever the block and
    worker counts. ``edges`` is the number of edges the call samples in
    all; with ``threads`` > 1 and at least ``_POOL_MIN_EDGES`` of them,
    every block goes to the process pool in one map."""
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    tasks = [
        (job, seed, start, min(start + block, reps))
        for job, seed in points
        for start in range(0, reps, block)
    ]
    workers = 1
    if threads > 1 and edges >= _POOL_MIN_EDGES:
        workers = _pool_workers(threads, len(tasks))
    if workers == 1:
        blocks = [_run_block(*task) for task in tasks]
    else:
        from concurrent.futures.process import BrokenProcessPool

        try:
            blocks = list(_executor(workers).map(_run_block, *zip(*tasks)))
        except BrokenProcessPool:
            _close_pool()  # a worker died; the next call starts a new pool
            raise
    per_point = -(-reps // block)  # blocks per point
    return [
        [row for rows in blocks[k * per_point : (k + 1) * per_point] for row in rows]
        for k in range(len(points))
    ]


# ----------------------------------------------------------------------
# Expected-vs-observed tree counts on the genome fixtures
# ----------------------------------------------------------------------


def _tree_rows(
    m: int, n: int, t: int, shapes: Sequence[tuple[int, int]], rngs: list[np.random.Generator]
) -> list[dict]:
    """Per stream, the tree count of each shape in ``sample_tp(m, n, t, rng)``,
    the streams run as one lock-step block."""
    edges = sample_tp_edges(m, n, t, rngs)
    max_i = max(i for i, _ in shapes)
    max_j = max(j for _, j in shapes)
    rows, cols = zip(*shapes)
    counts = block_tree_census(m, n, edges, max_i, max_j)[:, rows, cols]
    keys = [f"{i},{j}" for i, j in shapes]
    return [dict(zip(keys, row)) for row in counts.tolist()]


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
    ``sample_tp(m, n, t, split_stream(seed + d, i))`` returns. The replicates
    run in lock-step blocks of ``_TREE_BLOCK`` (:func:`sample_tp_edges` and
    :func:`block_tree_census`), the blocks of all datasets on the process
    pool when ``threads`` > 1; every stream stays with its replicate, so the
    report is the same for every ``threads``. Raises InputError for reps < 0,
    seed < 0 or threads < 1.
    """
    if reps < 0:
        raise InputError(f"reps must be >= 0, got {reps}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    if datasets is None:
        datasets = [load_fixture(name) for name in fixture_names()]
    datasets = list(datasets)
    sizes = [
        tuple((ds.published or {}).get(k, getattr(ds.graph, k)) for k in ("m", "n", "t"))
        for ds in datasets
    ]
    sims = _run_replicates(
        [(partial(_tree_rows, m, n, t, shapes), seed + d) for d, (m, n, t) in enumerate(sizes)],
        reps,
        reps * sum(t for _, _, t in sizes),
        threads,
        block=_TREE_BLOCK,
    )
    shape_i, shape_j = np.array(shapes).T
    max_i = int(shape_i.max())
    max_j = int(shape_j.max())
    rows: list[dict] = []
    flags: list[str] = []
    for ds, (m, n, t), raw in zip(datasets, sizes, sims):
        pub = ds.published or {}
        left = theory.solve_rate(t / m)
        right = theory.solve_rate(t / n)
        observed = tree_census(components(ds.graph), max_i, max_j)
        expected = theory.expected_trees(shape_i, shape_j, m, n, t)
        for (i, j), ea in zip(shapes, expected.tolist()):
            key = f"{i},{j}"
            sim_mean, sim_se = _mean_se([r[key] for r in raw]) if raw else (None, None)
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
    """Per stream, the largest components of ``sample_tp(m, n, t, rng)``."""
    rows = []
    for rng in rngs:
        summary = components(sample_tp(m, n, t, rng))
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
    for each (m, n, t) grid point, plus the analytic giant fractions."""
    if reps < 1:
        raise InputError("replicated sweeps need reps >= 1")
    theories = []
    for m, n, t in grid:
        left = theory.solve_rate(t / m)
        right = theory.solve_rate(t / n)
        ext = theory.extinction_probabilities(left.rate, right.rate)
        theories.append(
            dict(
                rate_product=left.rate * right.rate,
                giant_left_fraction=1.0 - ext.xi_left,
                giant_right_fraction=1.0 - ext.xi_right,
            )
        )
    sims = _run_replicates(
        [(partial(_giant_rows, m, n, t), seed + k) for k, (m, n, t) in enumerate(grid)],
        reps,
        reps * sum(t for _, _, t in grid),
        threads,
    )
    rows: list[dict] = []
    for (m, n, t), extra, point_rows in zip(grid, theories, sims):
        for row in point_rows:
            row.update(m=m, n=n, t=t, **extra)
            rows.append(row)
    return rows


def aggregate_giant_rows(rows: list[dict]) -> list[dict]:
    """One row per (m, n, t): empirical means and standard errors."""
    out = []
    for key in sorted({(r["m"], r["n"], r["t"]) for r in rows}):
        group = [r for r in rows if (r["m"], r["n"], r["t"]) == key]
        lf, lf_se = _mean_se([r["largest_left_fraction"] for r in group])
        rf, rf_se = _mean_se([r["largest_right_fraction"] for r in group])
        out.append(
            {
                "m": key[0],
                "n": key[1],
                "t": key[2],
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
        )
    return out


# ----------------------------------------------------------------------
# Connectivity sweep
# ----------------------------------------------------------------------


def _connectivity_rows(m: int, n: int, t: int, rngs: list[np.random.Generator]) -> list[dict]:
    """Per stream, whether ``sample_tp(m, n, t, rng)`` is connected."""
    return [{"connected": int(is_connected(sample_tp(m, n, t, rng)))} for rng in rngs]


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
    (1,1)-tree count) attached to every row."""
    if reps < 1:
        raise InputError("replicated sweeps need reps >= 1")
    edge_counts = []
    for c in c_grid:
        t = theory.connectivity_edge_count(m, n, c)
        if t < max(m, n):
            raise InputError(f"c={c} gives t={t} < max(m, n)")
        edge_counts.append(t)
    sims = _run_replicates(
        [(partial(_connectivity_rows, m, n, t), seed + k) for k, t in enumerate(edge_counts)],
        reps,
        reps * sum(edge_counts),
        threads,
    )
    rows: list[dict] = []
    for c, t, point_rows in zip(c_grid, edge_counts, sims):
        ea11 = theory.expected_trees(1, 1, m, n, t)
        for row in point_rows:
            row.update(m=m, n=n, t=t, c=c, expected_trees_11=ea11)
            rows.append(row)
    return rows


def aggregate_connectivity_rows(rows: list[dict]) -> list[dict]:
    """One row per c: empirical connection probability with binomial SE."""
    out = []
    for c in sorted({r["c"] for r in rows}):
        group = [r for r in rows if r["c"] == c]
        p_hat, se = _proportion(sum(r["connected"] for r in group), len(group))
        out.append(
            {
                "m": group[0]["m"],
                "n": group[0]["n"],
                "t": group[0]["t"],
                "c": c,
                "reps": len(group),
                "master_seed": group[0]["master_seed"],
                "p_connected": p_hat,
                "se": se,
                "expected_trees_11": group[0]["expected_trees_11"],
            }
        )
    return out


# ----------------------------------------------------------------------
# Count-ratio sweep and distinct-edge estimates
# ----------------------------------------------------------------------


def _distinct_rows(
    m: int, n: int, t: int, conditioned: bool, rngs: list[np.random.Generator]
) -> list[dict]:
    """Per stream, whether the t edge slots of one sample are distinct."""
    rows = []
    for rng in rngs:
        g = sample_tp(m, n, t, rng) if conditioned else sample_gr(m, n, t, rng)
        codes = np.sort(g.edges[:, 0] * n + g.edges[:, 1])
        distinct = bool((np.diff(codes) != 0).all()) if t > 1 else True
        rows.append({"distinct": int(distinct)})
    return rows


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
    (raw,) = _run_replicates(
        [(partial(_distinct_rows, m, n, t, conditioned), seed)], reps, reps * t, threads
    )
    p_hat, se = _proportion(sum(r["distinct"] for r in raw), reps)
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
    analytic bracket, each point's replicates on master seed seed + its
    index, as :func:`estimate_distinct_probability` would draw them. Raises
    InputError for mc_reps < 0, seed < 0 or threads < 1."""
    if mc_reps < 0:
        raise InputError(f"mc_reps must be >= 0, got {mc_reps}")
    if seed < 0:
        raise InputError(f"seed must be >= 0, got {seed}")
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")
    rows = []
    for m, n, t in grid:
        exact = theory.count_exact_log(m, n, t)
        asym = theory.count_asymptotic_log(m, n, t)
        lo, hi = theory.distinct_ratio_bracket(m, n, t)
        rows.append(
            {
                "m": m,
                "n": n,
                "t": t,
                "master_seed": seed,
                "log_count_exact": exact,
                "log_count_asymptotic": asym,
                "exact_over_asymptotic": math.exp(exact - asym),
                "bracket_lo": lo,
                "bracket_hi": hi,
                "birthday_factor": theory.birthday_factor(m, n, t),
            }
        )
    if mc_reps > 0:
        sims = _run_replicates(
            [
                (partial(_distinct_rows, m, n, t, True), seed + k)
                for k, (m, n, t) in enumerate(grid)
            ],
            mc_reps,
            mc_reps * sum(t for _, _, t in grid),
            threads,
        )
        for row, raw in zip(rows, sims):
            p_hat, se = _proportion(sum(r["distinct"] for r in raw), mc_reps)
            row.update(p_distinct_conditioned=p_hat, p_distinct_se=se)
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
