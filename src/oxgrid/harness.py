"""Seeded Monte Carlo experiment runner.

Every experiment takes a master seed; replicate ``i`` always runs on
``split_stream(seed, i)``, so results are bit-reproducible regardless of
thread count and any aggregate can be recomputed from the raw per-replicate
rows. Rows are plain dicts with stable column names, ready for CSV or JSON.

Replicates run in blocks of consecutive indices, one block per task of the
thread pool. The sweeps use blocks of one. The tree comparison's replicates
are tiny graphs whose cost is numpy's fixed cost per call, so it runs blocks
of ``_TREE_BLOCK`` in lock-step: the block's streams draw one batch each,
one inverse-CDF lookup maps them all, and one labelling of the block's
disjoint union counts every replicate's trees. Each replicate still draws
from its own stream exactly what it would draw alone, so its graph does not
depend on the block size or the thread count; drawing a block from one
shared stream would tie every replicate's graph to both.
"""

from __future__ import annotations

import csv
import io
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from . import theory
from .errors import InputError
from .generators import sample_gr, sample_tp, sample_tp_edges
from .graph import block_tree_census, components, is_connected, tree_census
from .ingest import Dataset, fixture_names, load_fixture
from .rng import split_stream

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
        if self.reps < 0:
            raise InputError("reps must be >= 0")
        if self.seed < 0:
            raise InputError("seed must be >= 0")
        if not self.grid:
            raise InputError("grid must be non-empty")

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


def _run_replicates(
    reps: int,
    seed: int,
    job: Callable[[list[np.random.Generator]], list[dict]],
    threads: int = 1,
    block: int = 1,
) -> list[dict]:
    """Rows of replicates 0..reps-1 in index order. ``job`` maps the streams
    of a block of up to ``block`` consecutive replicates to one row each;
    replicate i's stream is ``split_stream(seed, i)`` whatever the block and
    thread counts, and with ``threads`` > 1 whole blocks go to a pool."""
    if threads < 1:
        raise InputError(f"threads must be >= 1, got {threads}")

    def run(start: int) -> list[dict]:
        indices = range(start, min(start + block, reps))
        rows = job([split_stream(seed, i) for i in indices])
        for i, row in zip(indices, rows):
            row["master_seed"] = seed
            row["replicate_index"] = i
        return rows

    starts = range(0, reps, block)
    if threads == 1:
        blocks = [run(start) for start in starts]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            blocks = list(pool.map(run, starts))
    return [row for rows in blocks for row in rows]


def _each(job: Callable[[np.random.Generator], dict]):
    """A block job that runs a one-replicate job on each stream in turn."""
    return lambda rngs: [job(rng) for rng in rngs]


# ----------------------------------------------------------------------
# Expected-vs-observed tree counts on the genome fixtures
# ----------------------------------------------------------------------


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
    :func:`block_tree_census`), with whole blocks on the thread pool when
    ``threads`` > 1; every stream stays with its replicate, so the report is
    the same for every thread count. Raises InputError for reps < 0,
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
    max_i = max(s[0] for s in shapes)
    max_j = max(s[1] for s in shapes)
    cells = tuple(zip(*shapes))  # (the shapes' i values, their j values)
    keys = [f"{i},{j}" for i, j in shapes]
    rows: list[dict] = []
    flags: list[str] = []
    for ds_index, ds in enumerate(datasets):
        pub = ds.published or {}
        m = pub.get("m", ds.graph.m)
        n = pub.get("n", ds.graph.n)
        t = pub.get("t", ds.graph.t)
        left = theory.solve_rate(t / m)
        right = theory.solve_rate(t / n)
        observed = tree_census(components(ds.graph), max_i, max_j)
        sim_mean: dict[tuple[int, int], float] = {}
        sim_se: dict[tuple[int, int], float] = {}
        if reps > 0:
            def job(rngs: list[np.random.Generator], _m=m, _n=n, _t=t) -> list[dict]:
                edges = sample_tp_edges(_m, _n, _t, rngs)
                counts = block_tree_census(_m, _n, edges, max_i, max_j)[:, cells[0], cells[1]]
                return [dict(zip(keys, row)) for row in counts.tolist()]

            raw = _run_replicates(reps, seed + ds_index, job, threads, block=_TREE_BLOCK)
            for shape in shapes:
                key = f"{shape[0]},{shape[1]}"
                sim_mean[shape], sim_se[shape] = _mean_se([r[key] for r in raw])
        for i, j in shapes:
            key = f"{i},{j}"
            ea = theory.expected_trees(i, j, m, n, t)
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
                    "sim_mean": sim_mean.get((i, j)),
                    "sim_se": sim_se.get((i, j)),
                    "published_mismatch": flagged,
                }
            )
    return {"seed": seed, "reps": reps, "rows": rows, "flags": flags}


# ----------------------------------------------------------------------
# Giant-component sweep
# ----------------------------------------------------------------------


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
    rows: list[dict] = []
    for point_index, (m, n, t) in enumerate(grid):
        left = theory.solve_rate(t / m)
        right = theory.solve_rate(t / n)
        ext = theory.extinction_probabilities(left.rate, right.rate)

        def job(rng: np.random.Generator, _m=m, _n=n, _t=t) -> dict:
            summary = components(sample_tp(_m, _n, _t, rng))
            big = summary.largest
            return {
                "largest_left_fraction": int(summary.left[big]) / _m,
                "largest_right_fraction": int(summary.right[big]) / _n,
                "largest_size": summary.largest_size,
                "second_largest_size": summary.second_largest_size,
                "n_components": summary.n_components,
            }

        for row in _run_replicates(reps, seed + point_index, _each(job), threads):
            row.update(
                m=m,
                n=n,
                t=t,
                rate_product=left.rate * right.rate,
                giant_left_fraction=1.0 - ext.xi_left,
                giant_right_fraction=1.0 - ext.xi_right,
            )
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
    rows: list[dict] = []
    for point_index, c in enumerate(c_grid):
        t = theory.connectivity_edge_count(m, n, c)
        if t < max(m, n):
            raise InputError(f"c={c} gives t={t} < max(m, n)")
        ea11 = theory.expected_trees(1, 1, m, n, t)

        def job(rng: np.random.Generator, _t=t) -> dict:
            return {"connected": int(is_connected(sample_tp(m, n, _t, rng)))}

        for row in _run_replicates(reps, seed + point_index, _each(job), threads):
            row.update(m=m, n=n, t=t, c=c, expected_trees_11=ea11)
            rows.append(row)
    return rows


def aggregate_connectivity_rows(rows: list[dict]) -> list[dict]:
    """One row per c: empirical connection probability with binomial SE."""
    out = []
    for c in sorted({r["c"] for r in rows}):
        group = [r for r in rows if r["c"] == c]
        k = sum(r["connected"] for r in group)
        reps = len(group)
        p_hat = k / reps
        out.append(
            {
                "m": group[0]["m"],
                "n": group[0]["n"],
                "t": group[0]["t"],
                "c": c,
                "reps": reps,
                "master_seed": group[0]["master_seed"],
                "p_connected": p_hat,
                "se": math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / reps) / reps),
                "expected_trees_11": group[0]["expected_trees_11"],
            }
        )
    return out


# ----------------------------------------------------------------------
# Count-ratio sweep and distinct-edge estimates
# ----------------------------------------------------------------------


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

    def job(rng: np.random.Generator) -> dict:
        g = sample_tp(m, n, t, rng) if conditioned else sample_gr(m, n, t, rng)
        codes = np.sort(g.edges[:, 0] * n + g.edges[:, 1])
        distinct = bool((np.diff(codes) != 0).all()) if t > 1 else True
        return {"distinct": int(distinct)}

    raw = _run_replicates(reps, seed, _each(job), threads)
    k = sum(r["distinct"] for r in raw)
    p_hat = k / reps
    return {
        "m": m,
        "n": n,
        "t": t,
        "reps": reps,
        "seed": seed,
        "conditioned": conditioned,
        "p_distinct": p_hat,
        "se": math.sqrt(max(p_hat * (1.0 - p_hat), 1.0 / reps) / reps),
    }


def sweep_count_ratio(
    grid: Sequence[tuple[int, int, int]],
    mc_reps: int = 0,
    seed: int = 0,
    threads: int = 1,
) -> list[dict]:
    """Per (m, n, t): exact and asymptotic log counts and their ratio; with
    mc_reps > 0 also the conditioned distinct-edge probability against its
    analytic bracket."""
    rows = []
    for point_index, (m, n, t) in enumerate(grid):
        exact = theory.count_exact_log(m, n, t)
        asym = theory.count_asymptotic_log(m, n, t)
        lo, hi = theory.distinct_ratio_bracket(m, n, t)
        row = {
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
        if mc_reps > 0:
            est = estimate_distinct_probability(
                m, n, t, mc_reps, seed=seed + point_index, conditioned=True, threads=threads
            )
            row.update(
                p_distinct_conditioned=est["p_distinct"], p_distinct_se=est["se"]
            )
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
