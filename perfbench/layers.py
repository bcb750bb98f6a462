"""Which oxgrid names the traced run wraps, and the per-layer metrics.

The layers are oxgrid's modules. Each binding wraps a name where a caller
looks it up (``harness`` and ``cli`` resolve most names through their own
module globals), and the span is named after the module that defines the
function, so ``oxgrid.harness.sample_tp`` records ``generators.sample_tp``.
Names called inside a module's hot loops (``implied_mean`` within the rate
bisection, for one) are not wrapped: their time is the caller's self time.
"""

from __future__ import annotations

import importlib
import inspect

import numpy as np

from spans import Binding, Tracer

def _count_draws(tracer: Tracer, args, kwargs, result) -> None:
    size = args[2] if len(args) > 2 else kwargs.get("size")
    tracer.add("draws", 1 if size is None else int(size))


def _drawn_degrees(count: int, total: int) -> int:
    """Degrees of one side that conditioning drew; a side with total ==
    count or a single vertex is forced and draws nothing."""
    return 0 if total == count or count == 1 else count


def _check_graph(tracer: Tracer, args, kwargs, g) -> None:
    m, n, t = args[:3]
    tracer.add("accepted_degrees", _drawn_degrees(m, t) + _drawn_degrees(n, t))
    left = np.bincount(g.edges[:, 0], minlength=m)
    right = np.bincount(g.edges[:, 1], minlength=n)
    if not (
        g.m == m
        and g.n == n
        and g.t == t
        and left.min() >= 1
        and right.min() >= 1
        and left.sum() == t
        and right.sum() == t
    ):
        tracer.problem(
            f"sample_tp({m}, {n}, {t}) gave t={g.t}, min degrees "
            f"({left.min()}, {right.min()}), degree sums ({left.sum()}, {right.sum()})"
        )


def _count_multiset_degrees(tracer: Tracer, args, kwargs, result) -> None:
    m, n, t, samples = args[:4]
    tracer.add("accepted_degrees", samples * (_drawn_degrees(m, t) + _drawn_degrees(n, t)))


def _count_sequences(tracer: Tracer, args, kwargs, census) -> None:
    # with t < max(m, n) no sequence can be valid and none is iterated
    if census.t >= max(census.m, census.n):
        tracer.add("sequences", census.total_sequences)


def _public_functions(module_name: str) -> list[str]:
    module = importlib.import_module(module_name)
    return sorted(
        name
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module_name
    )


def bindings() -> list[Binding]:
    out = [
        Binding("oxgrid.harness", "split_stream", "rng.split_stream"),
        Binding("oxgrid.oracle", "make_stream", "rng.make_stream"),
        Binding("oxgrid.cli", "make_stream", "rng.make_stream"),
        Binding("oxgrid.generators", "solve_rate", "distributions.solve_rate"),
        Binding("oxgrid.theory", "solve_rate", "distributions.solve_rate"),
        Binding(
            "oxgrid.generators", "sample_truncated", "distributions.sample_truncated", _count_draws
        ),
        Binding("oxgrid.harness", "sample_tp", "generators.sample_tp", _check_graph),
        Binding(
            "oxgrid.oracle",
            "tp_multiset_counts",
            "generators.tp_multiset_counts",
            _count_multiset_degrees,
        ),
        Binding("oxgrid.generators", "BipartiteMultigraph", "graph.BipartiteMultigraph"),
        Binding("oxgrid.harness", "components", "graph.components"),
        Binding("oxgrid.harness", "is_connected", "graph.is_connected"),
        Binding("oxgrid.harness", "tree_census", "graph.tree_census"),
        Binding("oxgrid.ingest", "load_fixture", "ingest.load_fixture"),
        Binding("oxgrid.oracle", "exhaustive_census", "oracle.exhaustive_census", _count_sequences),
        Binding("oxgrid.oracle", "enumerate_bipartite_trees", "oracle.enumerate_bipartite_trees"),
        Binding("oxgrid.oracle", "tp_equivalence_test", "oracle.tp_equivalence_test"),
        Binding("oxgrid.cli", "main", "cli.main"),
    ]
    out += [Binding("oxgrid.theory", f, f"theory.{f}") for f in _public_functions("oxgrid.theory")]
    out += [Binding("oxgrid.harness", f, f"harness.{f}") for f in _public_functions("oxgrid.harness")]
    return out


# (name, unit); the order is the order of BENCHMARK.json's per_layer list
PER_LAYER = (
    ("distributions.sample_truncated.draws", "count"),
    ("distributions.sample_truncated.self_s", "s"),
    ("generators.degree_accept_ratio", "ratio"),
    ("generators.sample_tp.calls", "count"),
    ("generators.sample_tp.self_s", "s"),
    ("generators.sample_tp.ms.p50", "ms"),
    ("generators.sample_tp.ms.p90", "ms"),
    ("generators.sample_tp.cost_exponent", "exponent"),
    ("generators.tp_multiset_counts.self_s", "s"),
    ("graph.components.calls", "count"),
    ("graph.components.self_s", "s"),
    ("graph.components.ms.p50", "ms"),
    ("graph.is_connected.self_s", "s"),
    ("graph.tree_census.self_s", "s"),
    ("graph.BipartiteMultigraph.self_s", "s"),
    ("distributions.solve_rate.calls", "count"),
    ("distributions.solve_rate.self_s", "s"),
    ("rng.split_stream.calls", "count"),
    ("rng.split_stream.self_s", "s"),
    ("theory.self_s", "s"),
    ("oracle.exhaustive_census.self_s", "s"),
    ("oracle.exhaustive_census.sequences", "count"),
    ("oracle.enumerate_bipartite_trees.self_s", "s"),
    ("oracle.tp_equivalence_test.self_s", "s"),
    ("harness.self_s", "s"),
    ("harness.replicates", "count"),
    ("harness.thread_speedup", "x"),
    ("cli.self_s", "s"),
    ("ingest.load_fixture.self_s", "s"),
    ("trace.overhead_frac", "frac"),
)


def _percentile_ms(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1e3 if values else 0.0


def per_layer(tracer: Tracer, extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER value from the tracer's spans and counters.

    ``extra`` supplies the values not read from spans: the thread speed-up,
    the cost exponent and the tracing overhead. A layer that the workload
    does not call reads 0.
    """
    selfs = tracer.self_by_name()
    module_self = {
        module: sum(v for k, v in selfs.items() if k.split(".")[0] == module)
        for module in ("theory", "harness", "cli")
    }
    draws = tracer.counts["draws"]
    values = {
        "distributions.sample_truncated.draws": draws,
        "generators.degree_accept_ratio": (
            tracer.counts["accepted_degrees"] / draws if draws else 0.0
        ),
        "generators.sample_tp.ms.p50": _percentile_ms(tracer.durations("generators.sample_tp"), 50),
        "generators.sample_tp.ms.p90": _percentile_ms(tracer.durations("generators.sample_tp"), 90),
        "graph.components.ms.p50": _percentile_ms(tracer.durations("graph.components"), 50),
        "oracle.exhaustive_census.sequences": tracer.counts["sequences"],
        "harness.replicates": tracer.calls("rng.split_stream"),
        **{f"{module}.self_s": v for module, v in module_self.items()},
        **extra,
    }
    for name, _ in PER_LAYER:
        if name in values:
            continue
        span, stat = name.rsplit(".", 1)
        values[name] = tracer.calls(span) if stat == "calls" else selfs.get(span, 0.0)
    return {name: float(values[name]) for name, _ in PER_LAYER}
