"""oxgrid benchmark.

    python3 perfbench/run.py --workload {sweeps,trees-fixtures,verify} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from ``src/``.
Prints one manifest line (versions, sizes, raw timings), then as its last
line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

``--trace 0`` repeats the workload's unit of fixed work for ``--seconds``
and reports ``wall_ref`` and ``cpu_ref``: the units' time over the time of
a fixed reference computation measured alongside them (``reference.py``),
so that a slowdown of the whole shared machine, which scales both, does not
show. It also reports the median of several set-ups (``setup_s``, each in a
fresh interpreter, in seconds at a fixed machine speed) and ``peak_rss_mb``.

``--trace 1`` runs a fixed number of units twice each, plain and with
spans recorded around calls into every oxgrid module, and reports the
per-layer metrics of ``layers.PER_LAYER``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 12
# (n per side, replicates) for the cost exponent of sample_tp + components
# at rate product 2.25. n = 10^6 is left out: whole-vector degree rejection
# costs about n^1.5, so one replicate there takes about 2 minutes.
SCALING_PLAN = ((10**3, 24), (10**4, 8), (10**5, 2))
SCALING_SEED_INDEX = 900


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--setup-only",
        action="store_true",
        help="time one import + set-up in this interpreter; print its seconds and the "
        "mean timer probe during it",
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
        capture_output=True,
        text=True,
        timeout=30,
    )
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "oxgrid").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """One import + set-up of the workload in a fresh interpreter: its
    seconds, and the mean timer probe (``reference.TimerProbe``) during it."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--setup-only"],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=ROOT,
        check=True,
    )
    seconds, probe = proc.stdout.split()[-2:]
    return float(seconds), float(probe)


def unwrapped_gate() -> tuple[str, bool, str]:
    import oxgrid.distributions
    import oxgrid.generators
    import oxgrid.graph
    import oxgrid.harness

    pairs = [
        (oxgrid.generators.sample_truncated, oxgrid.distributions.sample_truncated),
        (oxgrid.harness.sample_tp, oxgrid.generators.sample_tp),
        (oxgrid.harness.components, oxgrid.graph.components),
        (oxgrid.generators.BipartiteMultigraph, oxgrid.graph.BipartiteMultigraph),
    ]
    same = sum(a is b for a, b in pairs)
    return ("oxgrid names are the unwrapped functions", same == len(pairs),
            f"{same}/{len(pairs)} identical")


class Tally:
    """Operations attempted and failed; a failed gate counts as one failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def gates(self, results) -> None:
        for name, ok, detail in results:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"FAIL {name}: {detail}", file=sys.stderr)

    def ops(self, count: int) -> None:
        self.attempted += count


def end_to_end(wl, seed: int, seconds: float) -> tuple[dict, dict, Tally]:
    import reference

    ctx = wl.setup(seed)
    tally = Tally()
    tally.gates([unwrapped_gate()])
    reference.measure()  # warm-up
    refs = [reference.measure()]
    walls, cpus, gauges, outs, setups = [], [], [], [], []
    measured = 0.0  # seconds spent in units and reference runs
    while not walls or measured < seconds:
        # the set-up probes are spread over the run, so that their median
        # samples the machine's load as the units do; their time is not
        # part of the run's --seconds
        while len(setups) < SETUP_PROBES * min(1.0, measured / seconds):
            setups.append(setup_seconds(wl.name, seed))
        t_unit = time.perf_counter()
        probe = reference.TimerProbe()
        try:
            with probe if wl.timer_probe else contextlib.nullcontext():
                w0, c0 = time.perf_counter(), time.process_time()
                out = wl.run(ctx, len(walls))
                wall, cpu = time.perf_counter() - w0, time.process_time() - c0
        except Exception:
            traceback.print_exc()
            tally.attempted += 1
            tally.failed += 1
            break
        refs.append(reference.measure())
        measured += time.perf_counter() - t_unit
        walls.append(wall - sum(probe.wall))
        cpus.append(cpu - sum(probe.cpu))
        # the gauge of a unit: the mean probe during it or, for a short
        # unit, the mean of the reference runs just before and after it
        if probe.wall:
            gauges.append((statistics.mean(probe.wall), statistics.mean(probe.cpu)))
        else:
            gauges.append(((refs[-2][0] + refs[-1][0]) / 2, (refs[-2][1] + refs[-1][1]) / 2))
        tally.ops(out.ops)
        outs.append(out)
    if outs:
        tally.gates(wl.gates(ctx, outs))
    tally.gates([unwrapped_gate()])
    setups += [setup_seconds(wl.name, seed) for _ in range(SETUP_PROBES - len(setups))]
    if not walls:
        walls, cpus, gauges = [measured], [measured], [refs[0]]
    # unit 0 warms the allocator and the caches: it is gated but not timed
    timed = slice(1, None) if len(walls) > 1 else slice(None)
    metrics = {
        "wall_ref": (sum(walls[timed]) / sum(w for w, _ in gauges[timed]), "ref"),
        "cpu_ref": (sum(cpus[timed]) / sum(c for _, c in gauges[timed]), "ref"),
        # set-up time at a fixed machine speed: see reference.PROBE_NOMINAL_S
        "setup_s": (
            statistics.median(t / probe for t, probe in setups) * reference.PROBE_NOMINAL_S,
            "s",
        ),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "units": len(walls),
        "unit_wall_s": walls,
        "unit_cpu_s": cpus,
        "unit_gauge_wall_s": [w for w, _ in gauges],
        "reference_wall_s": [r[0] for r in refs],
        "setup_raw_s": [t for t, _ in setups],
        "setup_probe_s": [probe for _, probe in setups],
    }
    return metrics, raw, tally


def scaling_probe(seed: int) -> tuple[float, dict]:
    """Cost exponent of sample_tp + components in n, from per-n medians."""
    import numpy as np
    from oxgrid.generators import sample_tp
    from oxgrid.graph import components
    from oxgrid.rng import split_stream

    import workloads

    medians = {}
    for k, (n, reps) in enumerate(SCALING_PLAN):
        _, _, t = workloads.giant_point(n, 2.25)
        master = workloads.unit_seed(seed, SCALING_SEED_INDEX + k)
        times = []
        for i in range(reps):
            rng = split_stream(master, i)
            t0 = time.perf_counter()
            components(sample_tp(n, n, t, rng))
            times.append(time.perf_counter() - t0)
        medians[n] = statistics.median(times)
    ns = list(medians)
    slope = float(np.polyfit(np.log(ns), np.log([medians[n] for n in ns]), 1)[0])
    return slope, {str(n): v for n, v in medians.items()}


def traced(wl, seed: int) -> tuple[dict, dict, Tally]:
    import layers
    from spans import Tracer

    tracer = Tracer()
    bindings = layers.bindings()
    tally = Tally()
    with tracer.installed(bindings):
        ctx = wl.setup(seed)
    seconds = {False: 0.0, True: 0.0}  # keyed by "traced"
    plain_texts, traced_outs = [], []
    for index in range(wl.traced_units):
        outs = {}
        # alternate which pass goes first so cache warmth favours neither
        for traced_pass in (index % 2 == 1, index % 2 == 0):
            with tracer.installed(bindings) if traced_pass else contextlib.nullcontext():
                t0 = time.perf_counter()
                outs[traced_pass] = wl.run(ctx, index)
                seconds[traced_pass] += time.perf_counter() - t0
        plain_out, traced_out = outs[False], outs[True]
        plain_texts.append(plain_out.text)
        tally.ops(traced_out.ops)
        traced_outs.append(traced_out)
        tally.gates([("traced output byte-identical to untraced",
                      traced_out.text == plain_out.text, f"unit {index}")])
    tally.gates(wl.gates(ctx, traced_outs))
    tally.gates([
        unwrapped_gate(),
        ("every sampled graph has t edges, min degree 1 and degree sums t",
         not tracer.problems, "; ".join(tracer.problems[:3])),
    ])
    extra = {
        "trace.overhead_frac": seconds[True] / seconds[False] - 1.0,
        "harness.thread_speedup": 0.0,
        "generators.sample_tp.cost_exponent": 0.0,
    }
    raw = {"traced_units": wl.traced_units, "plain_s": seconds[False], "traced_s": seconds[True]}
    # the thread pair and the scaling probe belong to sweeps, the only
    # workload that uses the harness thread pool and large sample_tp calls
    if wl.name == "sweeps":
        serial_s = 0.0
        for index in range(wl.traced_units):
            t0 = time.perf_counter()
            out = wl.run(ctx, index, threads=1)
            serial_s += time.perf_counter() - t0
            tally.gates([("threads=1 CSV byte-identical to threads=2",
                          out.text == plain_texts[index], f"unit {index}")])
        extra["harness.thread_speedup"] = serial_s / seconds[False]
        exponent, medians = scaling_probe(seed)
        extra["generators.sample_tp.cost_exponent"] = exponent
        raw.update(serial_s=serial_s, scaling_median_s=medians,
                   scaling_plan=[list(p) for p in SCALING_PLAN])
    values = layers.per_layer(tracer, extra)
    units = dict(layers.PER_LAYER)
    metrics = {name: (value, units[name]) for name, value in values.items()}
    raw["self_s_by_span"] = tracer.self_by_name()
    return metrics, raw, tally


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oxgrid" / "__init__.py").is_file():
        print(f"error: no oxgrid package under {SRC}", file=sys.stderr)
        return 2
    # the harness pool is the only parallelism measured
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        import reference

        with reference.TimerProbe() as probe:
            t0 = time.perf_counter()
            import workloads

            workloads.WORKLOADS[args.workload].setup(args.seed)
            seconds = time.perf_counter() - t0 - sum(probe.wall)
        if not probe.wall:
            probe.sample()
        print(seconds, statistics.mean(probe.wall))
        return 0

    import numpy as np
    import oxgrid

    import workloads

    if Path(oxgrid.__file__).resolve().parent != SRC / "oxgrid":
        print(f"error: imported oxgrid from {oxgrid.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.trace:
        metrics, raw, tally = traced(wl, args.seed)
    else:
        metrics, raw, tally = end_to_end(wl, args.seed, args.seconds)
    manifest = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "sizes": wl.sizes(),
        **raw,
    }
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
