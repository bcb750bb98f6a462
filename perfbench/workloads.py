"""The benchmark's workloads.

Each workload has a set-up (imports done by the caller, fixture and config
load, first-call warm-up of the sampler tables) and a unit of fixed work.
Unit ``index`` of workload seed ``seed`` draws every random number from
master seed :func:`unit_seed`, so equal arguments give byte-identical
output text. ``gates`` checks the outputs of all units of a run, pooled,
and returns one ``(name, ok, detail)`` triple per check: units are small,
so that each is timed between two reference runs, and a statistical check
on one unit alone would have too few replicates.

``oxgrid`` must be importable before this module is imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass

from oxgrid import cli, distributions, harness, ingest, theory
from oxgrid.distributions import TruncatedPoissonParams
from oxgrid.rng import make_stream

THREADS = 2

# sweeps: the c4/c5 giant-component points at m = n = 3000 and the c6
# connectivity grid at m = n = 2000. The number of rejection rounds in
# degree conditioning is geometric, so one replicate's cost has a standard
# deviation of about half its mean, whatever n; a run must pool many
# replicates to time the code rather than the seed. At these sizes a run of
# 30 s pools some 40 units of 24 replicates. Larger n is left to the traced
# scaling probe.
GIANT_N = 3_000
GIANT_RATE_PRODUCTS = (2.25, 0.5)
GIANT_REPS = 6
CONN_N = 2_000
CONN_C = (0.6, 1.0, 1.6)
CONN_REPS = 4
CONN_SEED_OFFSET = 100  # keeps the connectivity streams apart from the giant ones

# trees-fixtures
TREE_REPS = 250  # per fixture and unit
TREE_SHAPES = ((1, 1), (2, 1), (1, 2))
TREE_MAX_Z = 5.0

# verify
VERIFY_ARGS = ["verify", "--suite", "all", "--cap", "1e6", "--samples", "100000"]


def unit_seed(seed: int, index: int) -> int:
    """Master seed of unit ``index``; harness calls add at most a few
    grid-point offsets below 1000, so units never share a stream."""
    return seed * 1_000_000 + 1_000 * index


def giant_point(n: int, rate_product: float) -> tuple[int, int, int]:
    """(n, n, t) whose rates on both sides are sqrt(rate_product)."""
    mean = TruncatedPoissonParams.from_rate(math.sqrt(rate_product)).mean
    return n, n, round(n * mean)


def warm_sampler(means) -> None:
    """Fill the sampler's inverse-CDF cache for each mean degree, from a
    stream the workloads never use."""
    rng = make_stream(0)
    for mean in means:
        if mean > 1.0:
            distributions.sample_truncated(distributions.solve_rate(mean), rng, 1)


@dataclass
class Outcome:
    text: str  # the unit's full output, compared byte for byte
    ops: int  # replicates or verify checks the unit ran
    data: object  # what the gates read


class Sweeps:
    name = "sweeps"
    traced_units = 8  # units the traced run times plain and traced
    timer_probe = False  # units run on the harness pool; see reference.py

    def sizes(self) -> dict:
        return {
            "giant": {
                "m": GIANT_N,
                "n": GIANT_N,
                "rate_products": list(GIANT_RATE_PRODUCTS),
                "reps_per_point": GIANT_REPS,
            },
            "connectivity": {
                "m": CONN_N,
                "n": CONN_N,
                "c": list(CONN_C),
                "reps_per_point": CONN_REPS,
            },
            "threads": THREADS,
        }

    def setup(self, seed: int) -> dict:
        grid = [giant_point(GIANT_N, rp) for rp in GIANT_RATE_PRODUCTS]
        conn_t = [theory.connectivity_edge_count(CONN_N, CONN_N, c) for c in CONN_C]
        warm_sampler([t / m for m, _, t in grid] + [t / CONN_N for t in conn_t])
        return {"seed": seed, "grid": grid}

    def run(self, ctx: dict, index: int, threads: int = THREADS) -> Outcome:
        seed = unit_seed(ctx["seed"], index)
        giant = harness.sweep_giant(ctx["grid"], GIANT_REPS, seed, threads=threads)
        conn = harness.sweep_connectivity(
            CONN_N, CONN_N, CONN_C, CONN_REPS, seed + CONN_SEED_OFFSET, threads=threads
        )
        giant_agg = harness.aggregate_giant_rows(giant)
        conn_agg = harness.aggregate_connectivity_rows(conn)
        text = "".join(harness.rows_to_csv(rows) for rows in (giant, giant_agg, conn, conn_agg))
        return Outcome(text, len(giant) + len(conn), (giant, conn))

    def gates(self, ctx: dict, outs: list[Outcome]) -> list[tuple[str, bool, str]]:
        giant_agg = harness.aggregate_giant_rows([r for out in outs for r in out.data[0]])
        conn_agg = harness.aggregate_connectivity_rows([r for out in outs for r in out.data[1]])
        by_product = {
            rp: min(giant_agg, key=lambda r: abs(r["rate_product"] - rp))
            for rp in GIANT_RATE_PRODUCTS
        }
        sup, sub = by_product[2.25], by_product[0.5]
        dev = abs(sup["mean_largest_left_fraction"] - sup["giant_left_fraction"])
        # O(log n) against O(n): at m = n = 3000 the largest of 300
        # subcritical replicates was about 12 ln(m+n); a linear component
        # would be thousands of vertices
        log_cap = 25 * math.log(sub["m"] + sub["n"])
        p = {r["c"]: r["p_connected"] for r in conn_agg}
        return [
            (
                "mean largest-left fraction at rate product 2.25 within 0.01 of 1 - xi_left",
                dev <= 0.01,
                f"|{sup['mean_largest_left_fraction']:.5f} - {sup['giant_left_fraction']:.5f}|"
                f" = {dev:.5f}",
            ),
            (
                "subcritical largest component at rate product 0.5 is O(log n)",
                sub["max_largest_size"] <= log_cap,
                f"max {sub['max_largest_size']} vs 25 ln(m+n) = {log_cap:.0f}",
            ),
            (
                "connectivity low at c=0.6 and high at c=1.6",
                p[0.6] <= 0.1 and p[1.6] >= 0.6,
                f"p(0.6)={p[0.6]:.3f} p(1.6)={p[1.6]:.3f}",
            ),
        ]


class TreesFixtures:
    name = "trees-fixtures"
    traced_units = 8  # units the traced run times plain and traced
    timer_probe = False  # units of half a second; see reference.py

    def sizes(self) -> dict:
        return {
            "fixtures": list(ingest.fixture_names()),
            "reps_per_fixture": TREE_REPS,
            "shapes": [list(s) for s in TREE_SHAPES],
            "threads": 1,
        }

    def setup(self, seed: int) -> dict:
        datasets = [ingest.load_fixture(name) for name in ingest.fixture_names()]
        means = []
        for ds in datasets:
            pub = ds.published or {}
            m, n, t = (pub.get(k, getattr(ds.graph, k)) for k in ("m", "n", "t"))
            means += [t / m, t / n]
        warm_sampler(means)
        return {"seed": seed, "datasets": datasets}

    def run(self, ctx: dict, index: int, threads: int = 1) -> Outcome:
        report = harness.run_tree_comparison(
            ctx["datasets"],
            reps=TREE_REPS,
            seed=unit_seed(ctx["seed"], index),
            shapes=TREE_SHAPES,
            threads=threads,
        )
        text = json.dumps(report, sort_keys=True)
        return Outcome(text, TREE_REPS * len(ctx["datasets"]), report)

    def gates(self, ctx: dict, outs: list[Outcome]) -> list[tuple[str, bool, str]]:
        # every unit runs the same replicate count, so the pooled mean is the
        # mean of the unit means and its variance the mean of theirs over k
        pooled: dict[tuple[str, str], list[tuple[float, float]]] = {}
        rows = {}
        for out in outs:
            for row in out.data["rows"]:
                key = (row["dataset"], row["shape"])
                rows[key] = row
                pooled.setdefault(key, []).append((row["sim_mean"], row["sim_se"]))
        results = []
        for key, row in rows.items():
            i, j = (int(v) for v in row["shape"].split(","))
            exact = theory.expected_trees_exact(i, j, row["m"], row["n"], row["t"])
            k = len(pooled[key])
            mean = sum(mu for mu, _ in pooled[key]) / k
            se = math.sqrt(sum(s * s for _, s in pooled[key])) / k
            z = (mean - exact) / se if se else math.inf
            results.append(
                (
                    f"{row['dataset']} ({row['shape']}) simulated mean within "
                    f"{TREE_MAX_Z:g} se of the exact expectation",
                    abs(z) <= TREE_MAX_Z,
                    f"sim {mean:.4f} exact {exact:.4f} z={z:.2f} over {k} units",
                )
            )
        return results


class Verify:
    name = "verify"
    traced_units = 2  # units the traced run times plain and traced
    timer_probe = True  # units of several seconds; see reference.py

    def sizes(self) -> dict:
        return {"argv": VERIFY_ARGS + ["--seed", "<unit seed>"], "threads": 1}

    def setup(self, seed: int) -> dict:
        cli.build_parser()
        warm_sampler([1.5])  # the (2, 2, 3) equivalence instance
        return {"seed": seed}

    def run(self, ctx: dict, index: int, threads: int = 1) -> Outcome:
        buf = io.StringIO()
        argv = VERIFY_ARGS + ["--seed", str(unit_seed(ctx["seed"], index))]
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        text = buf.getvalue()
        checks = [line for line in text.splitlines() if line.startswith(("PASS", "FAIL"))]
        return Outcome(text, len(checks), (code, text))

    def gates(self, ctx: dict, outs: list[Outcome]) -> list[tuple[str, bool, str]]:
        codes = [code for code, _ in (out.data for out in outs)]
        body = [
            line
            for _, text in (out.data for out in outs)
            for line in text.splitlines()[1:-1]
            if line.strip()
        ]
        return [
            ("verify returns 0", all(code == 0 for code in codes), f"exit codes {set(codes)}"),
            (
                "every verify line reads PASS",
                bool(body) and all(line.startswith("PASS") for line in body),
                f"{sum(line.startswith('PASS') for line in body)}/{len(body)} PASS",
            ),
        ]


WORKLOADS = {w.name: w for w in (Sweeps(), TreesFixtures(), Verify())}
