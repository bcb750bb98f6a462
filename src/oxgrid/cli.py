"""Command-line front end.

Subcommands: predict, gen, analyze, trees, sweep, verify. Structured
single objects go out as JSON, row-oriented sweeps as CSV. Every stochastic
command requires or defaults-and-echoes a seed.

Exit codes: 0 success, 1 domain/validation error (including failed
verification), 2 I/O error, 3 internal error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import harness, oracle, theory
from .errors import OxgridError, InputError
from .generators import ModelSpec
from .graph import components, degrees, max_degree, min_degree, tree_census
from .ingest import (
    Dataset,
    emit_edge_list,
    emit_matrix,
    fixture_names,
    load_fixture,
    parse_auto,
    parse_edge_list,
    parse_matrix,
)
from .rng import make_stream

__all__ = ["main", "build_parser"]


class _UsageError(InputError):
    pass


class _Parser(argparse.ArgumentParser):
    # route argparse usage failures through the exit-code contract
    def error(self, message):
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="oxgrid", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("predict", help="analytic report for (m, n, t)")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--max-tree", type=int, default=4)

    p = sub.add_parser("gen", help="sample a random graph")
    p.add_argument("--model", choices=["gr", "gr1", "tp", "er"], required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--p", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["edges", "matrix"], default="edges")
    p.add_argument("--out", type=Path)

    p = sub.add_parser("analyze", help="census of a dataset file")
    p.add_argument("--in", dest="infile", type=Path, required=True)
    p.add_argument("--format", choices=["auto", "edges", "matrix"], default="auto")
    p.add_argument("--max-tree", type=int, default=4)

    p = sub.add_parser(
        "trees",
        help="expected vs observed tree counts on the genome fixtures",
    )
    p.add_argument("--datasets", type=Path, help="directory of fixture files")
    p.add_argument("--reps", type=int, default=0, help="simulation replicates per dataset")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1)

    p = sub.add_parser("sweep", help="Monte Carlo sweeps, CSV out")
    p.add_argument("kind", choices=["giant", "connectivity", "count-ratio"])
    p.add_argument("--config", type=Path, required=True)
    p.add_argument("--aggregate", action="store_true")
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--out", type=Path)

    p = sub.add_parser("verify", help="oracle verification suites")
    p.add_argument("--suite", choices=["oracle", "equivalence", "all"], default="all")
    p.add_argument("--cap", type=float, default=1e7, help="sequence-space cap")
    p.add_argument("--samples", type=int, default=10**6)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _emit(text: str, out: Path | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_predict(args) -> int:
    report = theory.predict(args.m, args.n, args.t, max_tree=args.max_tree)
    print(json.dumps(report.to_dict(), indent=2))
    return 0


def _cmd_gen(args) -> int:
    spec = ModelSpec(kind=args.model, m=args.m, n=args.n, t=args.t, p=args.p, seed=args.seed)
    graph = spec.sample()
    dataset = Dataset(
        name=f"{args.model}-sample",
        left_labels=[f"L{i + 1}" for i in range(graph.m)],
        right_labels=[f"R{j + 1}" for j in range(graph.n)],
        graph=graph,
    )
    header = (
        f"# model={args.model} m={args.m} n={args.n} "
        f"t={args.t if args.t is not None else ''} p={args.p if args.p is not None else ''} "
        f"seed={args.seed}\n"
    )
    body = emit_matrix(dataset) if args.format == "matrix" else emit_edge_list(dataset)
    _emit(header + body, args.out)
    return 0


def _census_payload(dataset: Dataset, max_tree: int) -> dict:
    g = dataset.graph
    summary = components(g)
    census = tree_census(summary, max_tree, max_tree)
    left_deg, right_deg = degrees(g)
    payload = {
        "name": dataset.name,
        "m": g.m,
        "n": g.n,
        "t": g.t,
        # is_connected's definition, read from the summary
        "connected": summary.n_components <= 1
        and summary.isolated_left + summary.isolated_right == 0,
        "n_components": summary.n_components,
        "largest_size": summary.largest_size,
        "second_largest_size": summary.second_largest_size,
        "isolated_left": summary.isolated_left,
        "isolated_right": summary.isolated_right,
        "min_degree": list(min_degree(g)),
        "max_degree": max_degree(g),
        "left_degrees": left_deg.tolist(),
        "right_degrees": right_deg.tolist(),
        "tree_census": {
            f"{i},{j}": int(census[i, j])
            for i in range(1, max_tree + 1)
            for j in range(1, max_tree + 1)
        },
        "components": [
            {"left": left, "right": right, "edges": edges, "is_tree": tree}
            for left, right, edges, tree in zip(
                summary.left.tolist(),
                summary.right.tolist(),
                summary.edges.tolist(),
                summary.is_tree.tolist(),
            )
        ],
    }
    if dataset.published:
        payload["published"] = dataset.published
    if dataset.notes:
        payload["notes"] = dataset.notes
    return payload


def _cmd_analyze(args) -> int:
    text = args.infile.read_text()
    parser = {"auto": parse_auto, "edges": parse_edge_list, "matrix": parse_matrix}[args.format]
    dataset = parser(text, name=args.infile.stem)
    print(json.dumps(_census_payload(dataset, args.max_tree), indent=2))
    return 0


def _cmd_trees(args) -> int:
    datasets = None
    if args.datasets is not None:
        datasets = [load_fixture(name, args.datasets) for name in fixture_names()]
    report = harness.run_tree_comparison(
        datasets=datasets, reps=args.reps, seed=args.seed, threads=args.threads
    )
    print(json.dumps(report, indent=2))
    return 0


def _cmd_sweep(args) -> int:
    config = harness.ExperimentConfig.from_dict(json.loads(args.config.read_text()))
    if config.kind != args.kind:
        raise InputError(f"config kind {config.kind!r} does not match subcommand {args.kind!r}")
    if args.kind == "giant":
        rows = harness.sweep_giant(
            [tuple(g) for g in config.grid], config.reps, config.seed, threads=args.threads
        )
        if args.aggregate:
            rows = harness.aggregate_giant_rows(rows)
    elif args.kind == "connectivity":
        if config.m is None or config.n is None:
            raise InputError("connectivity sweep config needs m and n")
        rows = harness.sweep_connectivity(
            config.m, config.n, config.grid, config.reps, config.seed, threads=args.threads
        )
        if args.aggregate:
            rows = harness.aggregate_connectivity_rows(rows)
    else:
        rows = harness.sweep_count_ratio(
            [tuple(g) for g in config.grid], mc_reps=config.reps, seed=config.seed,
            threads=args.threads,
        )
    _emit(harness.rows_to_csv(rows), args.out)
    return 0


def _verify_oracle(cap: int) -> list[tuple[str, bool, str]]:
    results = []
    checks = failures = 0
    for m in range(1, 8):
        for n in range(m, 8):
            t = 0
            while (m * n) ** t <= cap and (m * n > 1 or t <= 12):
                census = oracle.exhaustive_census(m, n, t, cap=cap, track_outcomes=False)
                expected = theory.count_exact(m, n, t)
                log_count = theory.count_exact_log(m, n, t)
                rounded = 0 if log_count == -math.inf else round(math.exp(log_count))
                checks += 1
                if not (census.valid_count == expected == rounded):
                    failures += 1
                    results.append(
                        (
                            f"count ({m},{n},{t})",
                            False,
                            f"enumerated {census.valid_count}, formula {expected}",
                        )
                    )
                t += 1
    results.append((f"exact counts vs enumeration ({checks} instances)", failures == 0, ""))
    tree_fail = 0
    pairs = 0
    for i in range(1, 21):
        for j in range(1, 21):
            if i * j > 20:
                continue
            pairs += 1
            if oracle.enumerate_bipartite_trees(i, j) != theory.labeled_tree_count(i, j):
                tree_fail += 1
                results.append((f"labeled trees ({i},{j})", False, "mismatch"))
    results.append((f"labeled-tree formula vs enumeration ({pairs} pairs)", tree_fail == 0, ""))
    return results


def _verify_equivalence(samples: int, seed: int) -> list[tuple[str, bool, str]]:
    results = []
    for index, (m, n, t) in enumerate([(2, 2, 2), (2, 2, 3)]):
        rng = make_stream(seed + index)
        report = oracle.tp_equivalence_test(m, n, t, samples, rng)
        results.append(
            (
                f"configuration model vs exact law ({m},{n},{t})",
                report.passed,
                f"tv={report.tv_distance:.5f} threshold={report.threshold:.5f}",
            )
        )
    return results


def _cmd_verify(args) -> int:
    # a cap below 1 admits no instance, which would pass vacuously; a bad
    # value stops the command before the header and the suites
    if not (math.isfinite(args.cap) and args.cap >= 1):
        raise InputError(f"--cap must be a finite number >= 1, got {args.cap}")
    if args.samples < 1:
        raise InputError(f"--samples must be >= 1, got {args.samples}")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    cap = int(args.cap)
    print(f"# suite={args.suite} cap={cap} samples={args.samples} seed={args.seed}")
    results: list[tuple[str, bool, str]] = []
    if args.suite in ("oracle", "all"):
        results.extend(_verify_oracle(cap))
    if args.suite in ("equivalence", "all"):
        results.extend(_verify_equivalence(args.samples, args.seed))
    failed = 0
    for name, ok, detail in results:
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"{status}  {name}{suffix}")
        if not ok:
            failed += 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


_COMMANDS = {
    "predict": _cmd_predict,
    "gen": _cmd_gen,
    "analyze": _cmd_analyze,
    "trees": _cmd_trees,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except OxgridError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
