import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oxgrid import harness, oracle, theory
from oxgrid.cli import _verify_oracle, main
from oxgrid.ingest import fixture_names, load_fixture


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_predict_subcritical_grid(capsys):
    code, out, _ = run_cli(capsys, "predict", "--m", "22", "--n", "21", "--t", "28")
    assert code == 0
    payload = json.loads(out)
    assert payload["rate_product"] < 1.0
    assert payload["expected_trees"]["1,1"] == pytest.approx(9.23, rel=0.03)


def test_predict_large_tree_table_is_finite(capsys):
    # i^(j-1) j^(i-1) / (i! j!) is past float range here; the table must not be
    code, out, _ = run_cli(
        capsys, "predict", "--m", "10000", "--n", "10000", "--t", "13000", "--max-tree", "400"
    )
    assert code == 0
    table = json.loads(out)["expected_trees"]
    assert len(table) == 400 * 400
    assert all(0.0 <= v < float("inf") for v in table.values())
    assert table["1,1"] > table["400,400"]


def test_predict_domain_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "predict", "--m", "5", "--n", "5", "--t", "5")
    assert code == 1
    assert "error" in err


def test_gen_precondition_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "gen", "--model", "gr1", "--m", "2", "--n", "2", "--t", "1"
    )
    assert code == 1
    assert "t >= max(m, n)" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--model", "tp", "--m", "3", "--n", "3", "--t", "5", "--p", "7"), "takes t, not p"),
        (("--model", "er", "--m", "3", "--n", "3", "--t", "-4", "--p", "0.5"), "takes p, not t"),
    ],
    ids=["tp-with-p", "er-with-t"],
)
def test_gen_rejects_the_other_models_parameter(capsys, argv, message):
    # the parameter was ignored, and written into the header all the same
    code, out, err = run_cli(capsys, "gen", *argv)
    assert code == 1
    assert out == ""
    assert message in err


def test_unknown_flag_exit_code(capsys):
    code, _, err = run_cli(capsys, "predict", "--m", "5", "--n", "5", "--whoops", "1")
    assert code == 1
    assert "usage error" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run_cli(capsys, "analyze", "--in", "/nonexistent/file.csv")
    assert code == 2
    assert "i/o error" in err


def test_gen_outputs_are_byte_identical_for_equal_seeds(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        code, _, _ = run_cli(
            capsys, "gen", "--model", "tp", "--m", "6", "--n", "6", "--t", "14",
            "--seed", "9", "--out", str(path),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    assert b"seed=9" in a.read_bytes()


@pytest.mark.filterwarnings("ignore:.*parallel edges")
def test_gen_analyze_round_trip_census(capsys, tmp_path):
    # the fixed seed yields a multigraph, so the re-parse warns about
    # duplicate lines by design
    out = tmp_path / "g.csv"
    run_cli(capsys, "gen", "--model", "gr1", "--m", "5", "--n", "5", "--t", "12",
            "--seed", "4", "--out", str(out))
    code, text, _ = run_cli(capsys, "analyze", "--in", str(out))
    assert code == 0
    payload = json.loads(text)
    assert (payload["m"], payload["n"], payload["t"]) == (5, 5, 12)
    assert payload["min_degree"] == [1, 1]

    # in-memory census for the same spec must agree
    from oxgrid.generators import ModelSpec
    from oxgrid.graph import components, tree_census

    g = ModelSpec(kind="gr1", m=5, n=5, t=12, seed=4).sample()
    summary = components(g)
    census = tree_census(summary, 4, 4)
    assert payload["n_components"] == summary.n_components
    assert payload["tree_census"]["1,1"] == int(census[1, 1])


def test_gen_matrix_format_preserves_isolated_vertices(capsys, tmp_path):
    out = tmp_path / "g.txt"
    code, _, _ = run_cli(capsys, "gen", "--model", "er", "--m", "6", "--n", "6",
                         "--p", "0.12", "--seed", "2", "--format", "matrix",
                         "--out", str(out))
    assert code == 0
    code, text, _ = run_cli(capsys, "analyze", "--in", str(out))
    assert code == 0
    payload = json.loads(text)
    assert (payload["m"], payload["n"]) == (6, 6)  # zero rows/columns kept


def test_analyze_lemur_fixture(capsys):
    # supercritical rates yet no smallest trees on the observed grid
    from oxgrid.ingest import _fixture_dir

    path = _fixture_dir() / "human_lemur.csv"
    code, text, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    payload = json.loads(text)
    assert payload["tree_census"]["1,1"] == 0
    assert payload["tree_census"]["1,2"] == 1


def test_analyze_reads_no_sidecar(capsys):
    # a bare file is parsed: the fixture's JSON sidecar beside it is not read
    from oxgrid.ingest import _fixture_dir

    code, text, _ = run_cli(capsys, "analyze", "--in", str(_fixture_dir() / "human_cat.txt"))
    assert code == 0
    payload = json.loads(text)
    assert (payload["m"], payload["n"], payload["t"]) == (22, 19, 32)
    assert "published" not in payload and "notes" not in payload


@pytest.mark.parametrize("text", ["7,1\n9,1\n8,0\n", "2,1\n1,2\n3,3\n"])
def test_analyze_reads_numeric_labels_as_edges(capsys, tmp_path, text):
    path = tmp_path / "chromosomes.csv"
    path.write_text(text)
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    assert json.loads(out)["t"] == 3


def test_trees_reads_a_datasets_directory(capsys, tmp_path):
    import shutil

    from oxgrid.ingest import _fixture_dir

    copy = tmp_path / "fixtures"
    shutil.copytree(_fixture_dir(), copy)
    code, bundled, _ = run_cli(capsys, "trees", "--reps", "3", "--seed", "1")
    assert code == 0
    code, copied, _ = run_cli(capsys, "trees", "--reps", "3", "--seed", "1",
                              "--datasets", str(copy))
    assert code == 0
    assert copied == bundled
    (copy / "human_dog.csv").unlink()
    code, out, err = run_cli(capsys, "trees", "--datasets", str(copy))
    assert code == 1 and out == ""
    assert "human_dog" in err


def test_trees_report_flags_dog(capsys):
    code, text, _ = run_cli(capsys, "trees", "--reps", "0")
    assert code == 0
    payload = json.loads(text)
    assert payload["seed"] == 0
    assert any("human_dog" in flag for flag in payload["flags"])
    datasets = {row["dataset"] for row in payload["rows"]}
    assert datasets == set(fixture_names())


def _no_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("reps", ["0", "1", "2"])
def test_trees_report_is_strict_json(capsys, reps):
    # the standard error of one replicate used to print as NaN
    code, text, _ = run_cli(capsys, "trees", "--reps", reps, "--seed", "3")
    assert code == 0
    rows = json.loads(text, parse_constant=_no_constant)["rows"]
    for row in rows:
        assert (row["sim_mean"] is None) == (reps == "0")
        assert (row["sim_se"] is None) == (reps != "2")


@pytest.mark.parametrize(
    "argv",
    [("--reps", "-5"), ("--threads", "0"), ("--threads", "-2"), ("--reps", "3", "--threads", "0")],
)
def test_trees_rejects_bad_reps_and_threads(capsys, argv):
    code, out, err = run_cli(capsys, "trees", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


def test_sweep_rejects_zero_threads(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "giant", "grid": [[300, 300, 580]], "reps": 2}))
    code, out, err = run_cli(capsys, "sweep", "giant", "--config", str(config), "--threads", "0")
    assert code == 1
    assert out == ""
    assert "threads must be >= 1" in err


def test_one_replicate_giant_aggregate_leaves_the_standard_errors_empty(capsys, tmp_path):
    # the standard error of one replicate used to print as nan
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "giant", "grid": [[300, 300, 580]], "reps": 1}))
    code, out, _ = run_cli(capsys, "sweep", "giant", "--config", str(config), "--aggregate")
    assert code == 0
    assert "nan" not in out.lower()
    header, row = (line.split(",") for line in out.strip().split("\n"))
    fields = dict(zip(header, row))
    assert fields["se_largest_left_fraction"] == fields["se_largest_right_fraction"] == ""
    assert fields["mean_largest_left_fraction"] != ""


def test_side_rates_past_709_predict_and_sweep(capsys, tmp_path):
    # e^rate overflows past side rate ~709.8; both commands exited 3 here
    code, out, _ = run_cli(capsys, "predict", "--m", "3", "--n", "3", "--t", "2130")
    assert code == 0
    assert 0.0 <= json.loads(out)["xi_left"] <= 1.0
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "giant", "grid": [[3, 3, 2130]], "reps": 2}))
    code, out, _ = run_cli(capsys, "sweep", "giant", "--config", str(config))
    assert code == 0
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("point", [[0, 5, 10], [5, 0, 10], [10, 10, 5]])
def test_giant_point_off_the_tp_precondition_is_an_input_error(capsys, tmp_path, point):
    # a zero-size side used to exit 3 from a division by zero
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "giant", "grid": [point], "reps": 2}))
    code, out, err = run_cli(capsys, "sweep", "giant", "--config", str(config))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "kind,config",
    [
        ("giant", {"grid": [[300, 300, 580]], "m": 5}),
        ("count-ratio", {"grid": [[50, 50, 100]], "m": 50, "n": 50}),
    ],
    ids=["giant", "count-ratio"],
)
def test_sweep_config_with_m_off_connectivity_exits_1(capsys, tmp_path, kind, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": kind, "reps": 2, **config}))
    code, out, err = run_cli(capsys, "sweep", kind, "--config", str(path))
    assert code == 1
    assert out == ""
    assert "belong to connectivity configs" in err


def test_giant_point_at_t_equal_max_side_exits_1(capsys, tmp_path):
    # a side's mean degree of 1 has no rate, so a giant point needs t > max(m, n)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "giant", "grid": [[5, 5, 5]], "reps": 2}))
    code, out, err = run_cli(capsys, "sweep", "giant", "--config", str(path))
    assert code == 1
    assert out == ""
    assert "mean=1.0" in err


def test_sweep_cli_round_trip(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "count-ratio", "grid": [[50, 50, 100]],
                                  "reps": 0, "seed": 1}))
    code, text, _ = run_cli(capsys, "sweep", "count-ratio", "--config", str(config))
    assert code == 0
    header, row = text.strip().split("\n")
    assert "exact_over_asymptotic" in header
    code, _, err = run_cli(capsys, "sweep", "giant", "--config", str(config))
    assert code == 1 and "does not match" in err


def test_count_ratio_rejects_aggregate(capsys, tmp_path):
    # count-ratio writes one row per point; --aggregate was silently ignored
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "count-ratio", "grid": [[50, 50, 100]], "reps": 2}))
    code, out, err = run_cli(capsys, "sweep", "count-ratio", "--config", str(config),
                             "--aggregate")
    assert code == 1 and out == ""
    assert "--aggregate" in err


def test_connectivity_aggregate_matches_the_raw_rows(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "connectivity", "m": 300, "n": 300,
                                  "grid": [0.6, 1.6], "reps": 5, "seed": 7}))
    code, out, _ = run_cli(capsys, "sweep", "connectivity", "--config", str(config),
                           "--aggregate")
    assert code == 0
    raw = harness.sweep_connectivity(300, 300, [0.6, 1.6], reps=5, seed=7)
    assert out == harness.rows_to_csv(harness.aggregate_connectivity_rows(raw))
    assert out.count("\n") == 3


def test_sweep_bad_json_exit_code(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{not json")
    code, _, err = run_cli(capsys, "sweep", "giant", "--config", str(config))
    assert code == 2


@pytest.mark.parametrize("text", ["5", "null", "{}", '"giant"'],
                         ids=["number", "null", "no-kind", "string"])
def test_sweep_config_that_is_not_an_object_with_a_kind_exits_1(capsys, tmp_path, text):
    # these exited 3 with a TypeError, and "giant" was read as the keys g, i, a, n, t
    config = tmp_path / "cfg.json"
    config.write_text(text)
    code, out, err = run_cli(capsys, "sweep", "giant", "--config", str(config))
    assert code == 1
    assert out == ""
    assert "JSON object with a kind" in err


@pytest.mark.parametrize(
    "argv", [("analyze", "--in"), ("sweep", "giant", "--config")], ids=["analyze", "sweep"]
)
def test_undecodable_input_bytes_are_an_io_error(capsys, tmp_path, argv):
    # undecodable bytes exited 3 with an internal UnicodeDecodeError; a
    # leading UTF-8 byte-order mark is dropped, and what follows must decode
    path = tmp_path / "input.txt"
    for data in (b"\xff\xfe\x00", b"\xef\xbb\xbf\xff\xfe\x00"):
        path.write_bytes(data)
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("i/o error:")


BOM = b"\xef\xbb\xbf"


def test_bom_prefixed_edge_list_reads_as_plain(capsys, tmp_path):
    # the byte-order mark glued itself to the header, which then read as an
    # edge: m, n and t came out as 3, 3, 3, without a warning
    payloads = []
    for prefix in (b"", BOM):
        path = tmp_path / f"bom-{len(prefix)}" / "grid.csv"
        path.parent.mkdir()
        path.write_bytes(prefix + b"left,right\nA,X\nB,Y\n")
        code, out, err = run_cli(capsys, "analyze", "--in", str(path))
        assert code == 0, err
        payloads.append(out)
    assert payloads[0] == payloads[1]
    assert [json.loads(payloads[1])[key] for key in "mnt"] == [2, 2, 2]


def test_bom_prefixed_sweep_config_runs_as_plain(capsys, tmp_path):
    # json.loads refused the byte-order mark, and the sweep exited 2
    config = json.dumps({"kind": "giant", "grid": [[300, 300, 580]], "reps": 2, "seed": 3})
    outputs = []
    for prefix in (b"", BOM):
        path = tmp_path / f"cfg-{len(prefix)}.json"
        path.write_bytes(prefix + config.encode())
        code, out, err = run_cli(capsys, "sweep", "giant", "--config", str(path))
        assert code == 0, err
        outputs.append(out)
    assert outputs[0] == outputs[1]


def _aggregate_csv(capsys, tmp_path, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "sweep", config["kind"], "--config", str(path), "--aggregate")
    assert code == 0
    header, *rows = (line.split(",") for line in out.strip().split("\n"))
    return [dict(zip(header, row)) for row in rows]


@pytest.mark.parametrize(
    "config",
    [
        {"kind": "connectivity", "m": 200, "n": 200, "grid": [1.0, 1.0]},
        {"kind": "giant", "grid": [[300, 300, 580]] * 2},
    ],
    ids=["connectivity", "giant"],
)
def test_aggregate_keeps_a_repeated_point_apart(capsys, tmp_path, config):
    # a repeated point merged into one row of 6 replicates labelled with seed
    # 5 only, though its second copy ran on seed 6
    rows = _aggregate_csv(capsys, tmp_path, {**config, "reps": 3, "seed": 5})
    assert [(r["reps"], r["master_seed"]) for r in rows] == [("3", "5"), ("3", "6")]


@pytest.mark.parametrize(
    "config,column,expected",
    [
        ({"kind": "giant", "grid": [[500, 500, 965], [300, 300, 580], [400, 400, 780]]},
         "m", ["500", "300", "400"]),
        ({"kind": "connectivity", "m": 200, "n": 200, "grid": [1.6, 0.8, 1.2]},
         "c", ["1.6", "0.8", "1.2"]),
    ],
    ids=["giant", "connectivity"],
)
def test_aggregate_rows_follow_the_grid_order(capsys, tmp_path, config, column, expected):
    # the aggregate rows came out sorted by point, whatever the grid order
    rows = _aggregate_csv(capsys, tmp_path, {**config, "reps": 2, "seed": 1})
    assert [r[column] for r in rows] == expected
    assert [r["master_seed"] for r in rows] == ["1", "2", "3"]


def test_verify_equivalence_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "equivalence",
                           "--samples", "20000")
    assert code == 0
    assert out.count("PASS") == 2


def test_verify_all_suites_pass(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--cap", "1e3",
                           "--samples", "2000")
    assert code == 0
    header, *results, summary = out.strip().split("\n")
    assert header == "# suite=all cap=1000 samples=2000 seed=0"
    assert len(results) == 4
    assert all(line.startswith("PASS  ") for line in results)
    assert summary == "4/4 checks passed"


def test_verify_output_is_pinned(capsys):
    # the full stdout of verify at the benchmark's scale must not change
    code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--cap", "1e6",
                           "--samples", "100000", "--seed", "1000")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1b5d044e11b1c4dd9fef9c3e2e7fb459002ad9efaecb675f298594d3a866ac53"
    )


@pytest.mark.parametrize(
    "formula,failing,checks",
    [
        ("count_exact", "count (", "exact counts"),
        ("labeled_tree_count", "labeled trees (", "labeled-tree"),
    ],
)
def test_verify_reports_failures_and_exits_1(capsys, monkeypatch, formula, failing, checks):
    # a formula off by one must fail each instance, its suite line and the run
    exact = getattr(theory, formula)
    monkeypatch.setattr(theory, formula, lambda *args: exact(*args) + 1)
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--cap", "100")
    assert code == 1
    header, *results, summary = out.strip().split("\n")
    failed = [line for line in results if line.startswith("FAIL  ")]
    assert len(failed) == len(results) - 1 >= 2
    assert all(line.startswith("FAIL  " + failing) for line in failed[:-1])
    assert failed[-1].startswith("FAIL  " + checks)
    assert summary == f"1/{len(results)} checks passed"


def test_verify_checks_the_formula_in_both_orientations(capsys, monkeypatch):
    # each unordered shape is enumerated once, but the formula must still be
    # checked at (i, j) and at (j, i): a formula off only when i > j fails
    # each of the 31 such pairs
    exact = theory.labeled_tree_count
    monkeypatch.setattr(theory, "labeled_tree_count", lambda i, j: exact(i, j) + (i > j))
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--cap", "100")
    assert code == 1
    failed = [line for line in out.split("\n") if line.startswith("FAIL  ")]
    expected = [
        f"FAIL  labeled trees ({i},{j})  (mismatch)"
        for i in range(1, 21)
        for j in range(1, 20 // i + 1)
        if i > j
    ]
    assert len(expected) == 31
    assert failed == expected + ["FAIL  labeled-tree formula vs enumeration (66 pairs)"]


def test_verify_enumerates_each_tree_shape_once(capsys, monkeypatch):
    calls = []
    enumerate_trees = oracle.enumerate_bipartite_trees

    def counting(i, j):
        calls.append((i, j))
        return enumerate_trees(i, j)

    monkeypatch.setattr(oracle, "enumerate_bipartite_trees", counting)
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--cap", "100")
    assert code == 0
    assert "PASS  labeled-tree formula vs enumeration (66 pairs)\n" in out
    # the 35 shapes with i <= j and i * j <= 20, each once
    assert len(calls) == len(set(calls)) == 35
    assert all(i <= j and i * j <= 20 for i, j in calls)


def test_verify_oracle_counts_every_instance_within_the_cap():
    # (2, 5, 6) has exactly 10**6 sequences, so it lies within the cap
    results = dict((name, ok) for name, ok, _ in _verify_oracle(10**6))
    assert results["exact counts vs enumeration (200 instances)"]
    assert results["labeled-tree formula vs enumeration (66 pairs)"]


def test_fixture_loading_used_by_cli_matches_api():
    for name in fixture_names():
        assert load_fixture(name).graph.t > 0


@pytest.mark.parametrize("cap", ["0", "-3", "nan", "inf"])
def test_verify_rejects_caps_that_admit_nothing(capsys, cap):
    code, out, err = run_cli(capsys, "verify", "--suite", "oracle", f"--cap={cap}")
    assert code == 1
    assert "--cap" in err
    assert "PASS" not in out


@pytest.mark.parametrize(
    "argv",
    [
        ("gen", "--model", "tp", "--m", "3", "--n", "3", "--t", "5", "--seed", "-1"),
        ("verify", "--seed", "-1"),
        ("trees", "--seed", "-1"),
        ("trees", "--seed", "-1", "--reps", "2"),
    ],
    ids=["gen", "verify", "trees", "trees-reps"],
)
def test_negative_seed_is_a_validation_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "seed" in err


def test_sweep_negative_seed_is_a_validation_error(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"kind": "giant", "grid": [[300, 300, 580]], "reps": 2,
                                  "seed": -4}))
    code, out, err = run_cli(capsys, "sweep", "giant", "--config", str(config))
    assert code == 1
    assert out == ""
    assert "seed must be >= 0" in err


@pytest.mark.parametrize("argv", [("--samples", "0"), ("--suite", "oracle", "--samples", "-3")])
def test_verify_rejects_samples_below_one_up_front(capsys, argv):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 1
    assert out == ""
    assert "--samples" in err


@pytest.mark.parametrize("suite", ["equivalence", "all"])
def test_verify_rejects_samples_that_cannot_fail_up_front(capsys, suite):
    # (2, 2, 3) has 8 outcomes: below 9 * 8 + 1 samples its check passes any
    # sampler, so a run that could only pass is an input error
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--samples", "72")
    assert code == 1
    assert out == ""
    assert "--samples must be >= 73" in err


def test_verify_runs_at_the_fewest_samples(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "equivalence", "--samples", "73")
    assert code == 0
    assert out.splitlines()[-1] == "2/2 checks passed"
    # the oracle suite draws no samples, so it takes any count from 1
    code, out, _ = run_cli(capsys, "verify", "--suite", "oracle", "--cap", "10", "--samples", "1")
    assert code == 0


@pytest.mark.parametrize(
    "kind,config",
    [
        ("giant", {"grid": [[100, 100]]}),
        ("giant", {"grid": [100, 100, 300]}),
        ("giant", {"grid": [[100.5, 100, 300]]}),
        ("giant", {"seed": 1.5}),
        ("giant", {"reps": True}),
        ("connectivity", {"grid": ["x"]}),
    ],
    ids=["pair", "flat-grid", "float-m", "float-seed", "bool-reps", "string-c"],
)
def test_malformed_sweep_config_is_a_validation_error(capsys, tmp_path, kind, config):
    base = {"kind": kind, "grid": [[300, 300, 580]], "reps": 2, "seed": 1}
    if kind == "connectivity":
        base.update(grid=[1.5], m=300, n=300)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**base, **config}))
    code, out, err = run_cli(capsys, "sweep", kind, "--config", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# each config samples more edges than harness._POOL_MIN_EDGES, so threads
# 2 and 3 run on the worker processes
@pytest.mark.parametrize(
    "kind,config",
    [
        ("giant", {"grid": [[3000, 3000, 5792]], "reps": 6}),
        ("connectivity", {"m": 1000, "n": 1000, "grid": [1.0, 1.5], "reps": 4}),
        ("count-ratio", {"grid": [[300, 300, 580], [500, 500, 965]], "reps": 24}),
    ],
    ids=["giant", "connectivity", "count-ratio"],
)
def test_sweep_csv_is_byte_identical_for_every_thread_count(capsys, tmp_path, kind, config):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": kind, "seed": 5, **config}))
    outs = []
    for threads in ("1", "2", "3"):
        code, out, _ = run_cli(capsys, "sweep", kind, "--config", str(path), "--threads", threads)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]
    assert outs[0].count("\n") > 1


# runs `python -m oxgrid` with the given arguments and, once the command has
# returned, writes the PIDs of the worker processes still attached to stderr
_RUN_THEN_LIST_WORKERS = """
import multiprocessing, runpy, sys
try:
    runpy.run_module("oxgrid", run_name="__main__")
except SystemExit as exc:
    code = exc.code
print(*(p.pid for p in multiprocessing.active_children()), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.skipif(harness._pool_workers(2, 2) < 2, reason="one usable CPU")
def test_python_m_oxgrid_leaves_no_worker_running(capsys, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"kind": "giant", "grid": [[3000, 3000, 5792]], "reps": 6,
                                "seed": 2}))
    argv = ["sweep", "giant", "--config", str(path)]
    src = str(Path(__file__).resolve().parent.parent / "src")
    path_var = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path_var}
    proc = subprocess.run([sys.executable, "-c", _RUN_THEN_LIST_WORKERS, *argv, "--threads", "2"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    pids = [int(pid) for pid in proc.stderr.split()]
    assert pids  # the sweep ran on worker processes
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert proc.stdout == out
