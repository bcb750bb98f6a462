import json

import pytest

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


def test_trees_report_flags_dog(capsys):
    code, text, _ = run_cli(capsys, "trees", "--reps", "0")
    assert code == 0
    payload = json.loads(text)
    assert payload["seed"] == 0
    assert any("human_dog" in flag for flag in payload["flags"])
    datasets = {row["dataset"] for row in payload["rows"]}
    assert datasets == set(fixture_names())


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


def test_sweep_bad_json_exit_code(capsys, tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text("{not json")
    code, _, err = run_cli(capsys, "sweep", "giant", "--config", str(config))
    assert code == 2


def test_verify_equivalence_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "equivalence",
                           "--samples", "20000")
    assert code == 0
    assert out.count("PASS") == 2


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
