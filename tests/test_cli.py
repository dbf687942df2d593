import argparse
import csv
import dataclasses
import json
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from privfp import bench, cli, privacy
from privfp.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# The CLI's error contract, one row per case; CI runs the same rows through the installed script.
CONTRACT = json.loads((Path(__file__).parent / "cli_contract.json").read_text())


@pytest.mark.parametrize("row", CONTRACT, ids=[" ".join(row["argv"]) for row in CONTRACT])
def test_contract_row(capsys, tmp_path, monkeypatch, row):
    """The row's exit code; the last stderr line names its category (an argparse
    usage error prints usage instead) and holds its message; stdout is empty where
    the row says so; and nothing is written to the working directory."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PRIVFP_OUTDIR", raising=False)
    try:
        code = main(row["argv"])
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    last = err.splitlines()[-1] if err else ""
    assert code == row["code"]
    if row["category"] is None:
        assert err.startswith("usage: ")
    else:
        assert last.startswith(f"error category={row['category']}: ")
    assert row["message"] in last
    assert out == "" or not row["stdout_empty"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("setting", privacy.SETTINGS)
def test_accounting_holds_no_iteration_bound(capsys, setting):
    """K above a run's bound of 2**63 - 1 is still a round count the accountant takes."""
    curve = ("--K", str(2**63), "--L", "1", "--gamma", "0.1", "--n", "100", "--m", "10")
    assert run_cli(capsys, "account", "--setting", setting, "--sigma", "5", *curve)[0] == 0
    assert run_cli(capsys, "calibrate", "--setting", setting, "--epsilon", "1",
                   "--delta", "1e-6", *curve)[0] == 0


class TestAccount:
    def test_prints_curve(self, capsys):
        code, out, _ = run_cli(capsys, "account", "--setting", "centralized",
                               "--sigma", "1", "--K", "100", "--L", "1",
                               "--gamma", "0.1", "--n", "100")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,epsilon,provenance"
        first = lines[1].split(",")
        assert float(first[0]) == 1.5
        assert float(first[1]) == pytest.approx(1.5 * 0.0016 / 2.0, rel=1e-12)

    def test_delta_conversion_reported(self, capsys):
        code, _, err = run_cli(capsys, "account", "--setting", "centralized",
                               "--sigma", "1", "--K", "100", "--L", "1",
                               "--gamma", "0.1", "--n", "100", "--delta", "1e-6")
        assert code == 0
        assert "(epsilon, delta)-DP" in err

    def test_writes_csv(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PRIVFP_OUTDIR", str(tmp_path))
        code, _, _ = run_cli(capsys, "account", "--setting", "local", "--sigma", "4",
                             "--K", "3", "--L", "1", "--gamma", "1", "--n", "10",
                             "--out", "curve.csv")
        assert code == 0
        with open(tmp_path / "curve.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows and "alpha" in rows[0]


    @pytest.mark.parametrize("setting", privacy.SETTINGS)
    @pytest.mark.parametrize("sigma", ["nan", "inf", "1e200"])
    def test_non_finite_or_huge_sigma_rejected(self, capsys, setting, sigma):
        code, out, err = run_cli(capsys, "account", "--setting", setting, "--sigma", sigma,
                                 "--K", "10", "--L", "1", "--gamma", "0.1", "--n", "100",
                                 "--m", "5")
        assert code == 2
        assert "parameter_error" in err
        assert "nan" not in out

    @pytest.mark.parametrize("setting", privacy.SETTINGS)
    @pytest.mark.parametrize("name", ["L", "gamma"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan"])
    def test_L_or_gamma_not_above_zero_rejected(self, capsys, setting, name, value):
        params = {"--K": "5", "--L": "1", "--gamma": "0.1", "--n": "100", "--m": "5"}
        params["--" + name] = value
        code, out, err = run_cli(capsys, "account", "--setting", setting, "--sigma", "8",
                                 "--delta", "1e-6", *(x for kv in params.items() for x in kv))
        assert code == 2
        assert "category=parameter_error: " in err and f" {name} must be > 0" in err
        assert out == ""


class TestCalibrate:
    def test_rdp_target_closed_form(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate", "--setting", "centralized",
                               "--epsilon", "0.0016", "--alpha", "2", "--K", "100",
                               "--L", "1", "--gamma", "0.1", "--n", "100")
        assert code == 0
        assert float(out.strip()) == pytest.approx(1.0, rel=1e-6)

    @pytest.mark.parametrize("args", [
        ("--setting", "centralized", "--epsilon", "nan", "--delta", "1e-6"),
        ("--setting", "centralized", "--epsilon", "nan", "--alpha", "4"),
        ("--setting", "network", "--epsilon", "0.1", "--delta", "1e-6", "--L", "-0.1"),
    ], ids=["nan_budget_delta", "nan_budget_alpha", "negative_L"])
    def test_nan_budget_or_negative_L_is_a_parameter_error(self, capsys, args):
        defaults = ("--K", "200", "--L", "0.1", "--gamma", "1", "--n", "900")
        code, out, err = run_cli(capsys, "calibrate", *defaults, *args)
        assert code == 2
        assert "category=parameter_error: " in err
        assert ("privacy budget epsilon" if "nan" in args else "L must be > 0") in err
        assert out == ""

    @pytest.mark.parametrize("target", [("--alpha", "2"), ("--delta", "1e-6")],
                             ids=["alpha", "delta"])
    def test_infinite_budget_is_a_parameter_error_in_both_target_forms(self, capsys, target):
        code, out, err = run_cli(capsys, "calibrate", "--setting", "centralized", "--epsilon",
                                 "inf", *target, "--K", "10", "--L", "1", "--gamma", "1",
                                 "--n", "10")
        assert code == 2
        assert "category=parameter_error: privacy budget epsilon must be finite, got inf" in err
        assert out == ""

    @pytest.mark.parametrize("m", ["50", "5"], ids=["q-out-of-regime", "q-in-regime"])
    def test_delta_outside_unit_interval_is_a_parameter_error(self, capsys, m):
        # at m=50 the q >= 1/5 regime failure used to hide the bad delta (exit 5)
        code, out, err = run_cli(capsys, "calibrate", "--setting", "federated_central",
                                 "--epsilon", "1", "--delta", "1.5", "--K", "10", "--L", "1",
                                 "--gamma", "1", "--n", "100", "--m", m)
        assert code == 2
        assert "category=parameter_error: delta must lie in (0, 1), got 1.5" in err
        assert out == ""


class TestSolve:
    def test_nonprivate_run(self, capsys):
        code, out, _ = run_cli(capsys, "solve", "--setting", "centralized",
                               "--algorithm", "admm", "--n", "60", "--p", "8",
                               "--support-size", "2", "--K", "300", "--lam", "1.0",
                               "--sigma", "0")
        assert code == 0
        assert "train_obj=" in out and "test_obj=" in out

    def test_config_file_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# tiny run\nn = 50\np = 6\nsupport_size = 2\nK = 40\n"
                       "sigma = 0\nsetting = centralized\n")
        code, out, _ = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 0
        assert "sigma=0" in out

    def test_unknown_config_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not_a_key = 3\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "parameter_error" in err

    def test_config_line_without_equals_sign(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# tiny run\nn 50\n")
        code, out, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert f"category=parameter_error: {cfg}:2: expected 'key = value', got 'n 50'" in err
        assert out == ""

    @pytest.mark.parametrize("line, key", [("n = abc", "n"), ("sigma = high", "sigma"),
                                           ("seeds = 1,x", "seeds"), ("epsilons = ,", "epsilons")])
    def test_malformed_config_value(self, capsys, tmp_path, line, key):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"p = 6\n{line}\n")
        code, _, err = run_cli(capsys, "solve", "--config", str(cfg))
        assert code == 2
        assert "parameter_error" in err
        assert f"{cfg}:2" in err and repr(key) in err

    @pytest.mark.parametrize("setting", ["centralized", "federated", "decentralized"])
    @pytest.mark.parametrize("sigma", ["nan", "inf", "1e200"])
    def test_non_finite_or_huge_sigma_rejected(self, capsys, setting, sigma):
        code, _, err = run_cli(capsys, "solve", "--setting", setting, "--n", "30", "--p", "4",
                               "--support-size", "2", "--K", "5", "--sigma", sigma)
        assert code == 2
        assert "parameter_error" in err

    # NaN runs under the bare algorithm id; the other values get a suffix.
    @pytest.mark.parametrize("algorithm, value", [
        pytest.param(algorithm, value, id=algorithm if value == "nan" else f"{algorithm}-{value}")
        for algorithm in ("admm", "dpsgd") for value in ("nan", "inf", "0", "-1")])
    def test_nan_clip_threshold_rejected(self, capsys, tmp_path, algorithm, value):
        code, _, err = run_cli(capsys, "solve", "--setting", "centralized",
                               "--algorithm", algorithm, "--clip-threshold", value,
                               "--sigma", "0.5", "--K", "20",
                               "--outdir", str(tmp_path), "--out", "r.csv")
        assert code == 2
        assert "category=parameter_error: clip_threshold must" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("setting", ["centralized", "federated", "decentralized"])
    def test_nan_budget_rejected_naming_it(self, capsys, setting):
        code, _, err = run_cli(capsys, "solve", "--setting", setting, "--n", "30", "--p", "4",
                               "--support-size", "2", "--K", "5", "--epsilons", "nan")
        assert code == 2
        assert "category=parameter_error: privacy budget epsilon" in err

    @pytest.mark.parametrize("epsilons", ["0.1,nan", "nan,0.1"])
    def test_nan_budget_rejected_in_either_position(self, capsys, tmp_path, epsilons):
        code, _, err = run_cli(capsys, "solve", "--setting", "centralized", "--n", "30", "--p", "4",
                               "--support-size", "2", "--K", "5", "--epsilons", epsilons,
                               "--outdir", str(tmp_path), "--out", "r.csv")
        assert code == 2
        assert "category=parameter_error: privacy budget epsilon must be a number, got nan" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("delta", ["2", "0", "nan"])
    def test_delta_outside_unit_interval_rejected(self, capsys, tmp_path, delta):
        # a cohort of half the users is out of the subsampling regime; that
        # failure (exit 5) used to hide the bad delta
        code, _, err = run_cli(capsys, "solve", "--setting", "federated", "--n", "200",
                               "--K", "5", "--sample-fraction", "0.5", "--delta", delta,
                               "--epsilons", "1", "--seeds", "0",
                               "--outdir", str(tmp_path), "--out", "r.csv")
        assert code == 2
        assert "category=parameter_error: delta must lie in (0, 1)" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("epsilons", ["0.1,inf", "inf"])
    def test_infinite_budget_rejected(self, capsys, tmp_path, epsilons):
        code, _, err = run_cli(capsys, "solve", "--setting", "centralized", "--n", "30", "--p", "4",
                               "--support-size", "2", "--K", "5", "--epsilons", epsilons,
                               "--outdir", str(tmp_path), "--out", "r.csv")
        assert code == 2
        assert "category=parameter_error: privacy budget epsilon must be finite, got inf" in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("args, n, fraction", [
        (("--setting", "centralized", "--n", "1"), 1, 0.1),
        (("--setting", "federated", "--n", "10", "--test-fraction", "0.96"), 10, 0.96),
    ], ids=["centralized-n-1", "federated-test-fraction-0.96"])
    def test_split_without_a_training_row_rejected(self, capsys, tmp_path, args, n, fraction):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning from an empty training set
            code, _, err = run_cli(capsys, "solve", *args, "--K", "5", "--epsilons", "1",
                                   "--outdir", str(tmp_path), "--out", "r.csv")
        assert code == 2
        assert (f"category=parameter_error: test fraction {fraction} of n={n} rows leaves "
                "no training row") in err
        assert "Traceback" not in err and not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("fraction", ["-0.5", "0", "1.5", "nan"])
    def test_sample_fraction_outside_unit_interval_rejected(self, capsys, fraction):
        code, _, err = run_cli(capsys, "solve", "--setting", "federated", "--n", "30", "--p", "4",
                               "--support-size", "2", "--sample-fraction", fraction,
                               "--sigma", "0", "--K", "5")
        assert code == 2
        assert "category=parameter_error" in err and "sample fraction" in err

    @pytest.mark.parametrize("name", ["kappa", "kappa_fraction"])
    @pytest.mark.parametrize("value", ["nan", "-0.1", "inf"])
    def test_nan_negative_or_infinite_kappa_rejected(self, capsys, name, value):
        code, _, err = run_cli(capsys, "solve", "--setting", "centralized", "--n", "50",
                               "--p", "4", "--support-size", "2", "--K", "5", "--sigma", "0.5",
                               "--" + name.replace("_", "-"), value)
        assert code == 2
        assert f"category=parameter_error: {name} must" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_non_finite_or_non_positive_gamma_scale_rejected(self, capsys, value):
        code, _, err = run_cli(capsys, "solve", "--setting", "centralized", "--n", "50",
                               "--p", "4", "--support-size", "2", "--K", "5", "--sigma", "0",
                               "--gamma-scale", value)
        assert code == 2
        assert "category=parameter_error: gamma_scale must" in err

    @pytest.mark.parametrize("setting", ["federated", "centralized"])
    def test_non_finite_objective_is_not_written(self, capsys, tmp_path, setting):
        out = tmp_path / "o.csv"
        out.write_text("old\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run_cli(capsys, "solve", "--setting", setting, "--algorithm", "dpsgd",
                                   "--step", "1e300", "--n", "200", "--p", "8", "--K", "20",
                                   "--sigma", "8", "--outdir", str(tmp_path), "--out", "o.csv")
        assert code == 4
        assert "model_error" in err
        assert f"{setting} dpsgd run at seed 0, epsilon=" in err
        assert out.read_text() == "old\n"

    def test_unexpected_exception_propagates(self, monkeypatch):
        def fail(config, collect=False):
            raise RuntimeError("unexpected")

        monkeypatch.setattr(bench, "solve_once", fail)
        with pytest.raises(RuntimeError, match="unexpected"):
            main(["solve", "--sigma", "0"])


class TestSolveArtifacts:
    def test_trace_export(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "solve", "--setting", "centralized",
                             "--n", "40", "--p", "4", "--support-size", "2",
                             "--K", "25", "--sigma", "0", "--outdir", str(tmp_path),
                             "--trace-out", "trace.csv")
        assert code == 0
        with open(tmp_path / "trace.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 25
        assert float(rows[-1]["objective"]) <= float(rows[0]["objective"])

    def test_observation_log_export(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "solve", "--setting", "decentralized",
                             "--n", "30", "--p", "4", "--support-size", "2",
                             "--K", "50", "--sigma", "0", "--outdir", str(tmp_path),
                             "--observations-out", "obs.csv")
        assert code == 0
        with open(tmp_path / "obs.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 50
        assert set(rows[0].keys()) == {"user", "step", "z0", "z1", "z2", "z3"}


class TestBench:
    def test_tiny_grid_writes_results(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "bench", "--n", "60", "--p", "6",
                               "--support-size", "2", "--K", "20",
                               "--epsilons", "2.0", "--seeds", "0,1",
                               "--outdir", str(tmp_path), "--out", "res.csv")
        assert code == 0
        with open(tmp_path / "res.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert {r["algorithm"] for r in rows} == {"admm"}

    def test_compare_runs_both_algorithms(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, "bench", "--n", "60", "--p", "6",
                             "--support-size", "2", "--K", "20",
                             "--epsilons", "2.0", "--seeds", "0",
                             "--compare", "--outdir", str(tmp_path), "--out", "cmp.csv")
        assert code == 0
        with open(tmp_path / "cmp.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["algorithm"] for r in rows} == {"admm", "dpsgd"}


    def test_split_without_a_training_row_rejected(self, capsys, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run_cli(capsys, "bench", "--n", "1", "--K", "5", "--epsilons", "1",
                                   "--seeds", "0", "--outdir", str(tmp_path), "--out", "res.csv")
        assert code == 2
        assert "category=parameter_error: test fraction 0.1 of n=1 rows leaves no training row" in err
        assert "Traceback" not in err and not (tmp_path / "res.csv").exists()

    def test_unwritable_outdir_fails_before_the_grid(self, capsys, monkeypatch):
        monkeypatch.setattr(bench, "run_experiment", lambda config: pytest.fail("the grid ran"))
        code, out, err = run_cli(capsys, "bench", "--outdir", "/dev/null/x")
        assert code == 6
        assert "category=io_error: " in err and out == ""

    def test_non_finite_objective_is_not_written(self, capsys, tmp_path):
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run_cli(capsys, "bench", "--setting", "centralized",
                                   "--algorithm", "dpsgd", "--step", "1e300", "--n", "200",
                                   "--p", "8", "--K", "20", "--sigma", "8", "--seeds", "2",
                                   "--outdir", str(tmp_path), "--out", "res.csv")
        assert code == 4
        assert "model_error" in err
        assert "centralized dpsgd run at seed 2, epsilon=" in err
        assert not (tmp_path / "res.csv").exists()


# A value for every ExperimentConfig field that differs from its default.
FIELD_SAMPLES = {
    "setting": "centralized", "algorithm": "dpsgd", "n": "50", "p": "6", "support_size": "3",
    "noise_std": "0.2", "K": "7", "lam": "0.5", "gamma_scale": "0.1", "step": "0.3",
    "clip_threshold": "2.5", "kappa": "0.01", "kappa_fraction": "0.2",
    "sample_fraction": "0.05", "epsilons": "0.5,2", "delta": "1e-5", "sigma": "0.7",
    "seeds": "3,4", "data_seed": "9", "test_fraction": "0.2", "alphas": "2,8,64",
}


def subcommand_parser(command):
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices[command]


class TestExperimentKnobs:
    @pytest.mark.parametrize("command", ["solve", "bench"])
    def test_flags_config_keys_and_fields_are_one_set(self, command):
        names = [f.name for f in dataclasses.fields(bench.ExperimentConfig)]
        assert set(names) == set(FIELD_SAMPLES)
        own = {"help", "config", "outdir", "out", "trace_out", "observations_out",
               "compare", "tune"}
        flags = {a.dest: a.option_strings for a in subcommand_parser(command)._actions
                 if a.dest not in own}
        assert flags == {name: ["--" + name.replace("_", "-")] for name in names}

    @pytest.mark.parametrize("key", list(FIELD_SAMPLES))
    def test_config_value_parses_like_its_flag(self, tmp_path, key):
        cfg = tmp_path / "one.cfg"
        cfg.write_text(f"{key} = {FIELD_SAMPLES[key]}\n")
        parser = cli.build_parser()
        from_file = cli._config_from_args(parser.parse_args(["solve", "--config", str(cfg)]))
        flag = "--" + key.replace("_", "-")
        from_flag = cli._config_from_args(parser.parse_args(["solve", flag, FIELD_SAMPLES[key]]))
        assert getattr(from_file, key) == getattr(from_flag, key)
        assert getattr(from_file, key) != getattr(bench.ExperimentConfig(), key)
        assert from_file == from_flag


HELP_SNAPSHOTS = Path(__file__).parent / "help"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the snapshots hold Python 3.11's argparse layout")
@pytest.mark.parametrize("command", ["privfp", "solve", "bench", "account", "calibrate"])
def test_help_matches_its_snapshot_byte_for_byte(capsys, monkeypatch, command):
    """``COLUMNS=80 privfp [command] --help`` prints tests/help/<command>.txt."""
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        main(([] if command == "privfp" else [command]) + ["--help"])
    assert done.value.code == 0
    assert capsys.readouterr().out.encode() == (HELP_SNAPSHOTS / f"{command}.txt").read_bytes()
