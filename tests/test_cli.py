import dataclasses
import math

import numpy as np
import pytest

from duelsim import ExperimentConfig, cli, policies, rucb_delay_expected_bound
from duelsim.cli import build_parser, main
from duelsim.harness import AggregateResult


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDatasetsCommand:
    def test_list(self, capsys):
        code, out, err = run_cli(capsys, "datasets", "list")
        assert code == 0
        assert "arithmetic (K=10)" in out
        assert "sushi (K=16)" in out
        assert err == ""


class TestRunParser:
    def test_policy_choices_are_policy_names(self):
        parser = build_parser()
        (run,) = (a for a in parser._actions if a.dest == "command")
        (policy,) = (a for a in run.choices["run"]._actions if a.dest == "policy")
        assert list(policy.choices) == policies.policy_names()
        for name in policies.policy_names():
            args = parser.parse_args(["run", "--dataset", "arithmetic", "--policy", name])
            assert args.policy == name

    def test_one_flag_per_config_field(self):
        """run has exactly one flag per ExperimentConfig field, plus --out."""
        parser = build_parser()
        (command,) = (a for a in parser._actions if a.dest == "command")
        flags = [a for a in command.choices["run"]._actions if a.dest != "help"]
        assert all(len(a.option_strings) == 1 for a in flags)
        dests = sorted(a.dest for a in flags)
        assert dests == sorted([*(f.name for f in dataclasses.fields(ExperimentConfig)), "out"])


class TestRunConfig:
    """run passes its flags straight into ExperimentConfig."""

    @pytest.fixture
    def captured(self, monkeypatch):
        configs = []

        def fake_run_many(config):
            configs.append(config)
            one = np.zeros(1)
            return AggregateResult(times=one, mean=one, std=one, runs=[])

        monkeypatch.setattr(cli, "run_many", fake_run_many)
        return configs

    def test_absent_flags_take_the_config_defaults(self, captured, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", "--policy", "rucb-delay",
            "--out", str(tmp_path),
        )
        assert code == 0, err
        assert captured == [ExperimentConfig("arithmetic", "rucb-delay")]

    @pytest.mark.parametrize(
        "flag, value, field, typed",
        [
            ("--T", "7", "horizon", 7),
            ("--seed", "3", "base_seed", 3),
            ("--stride", "2", "trace_stride", 2),
            ("--alpha", "1.5", "alpha", 1.5),
            ("--delay", "det:4", "delay", "det:4"),
            ("--runs", "5", "runs", 5),
            ("--window", "30", "window", 30),
            ("--delta", "0.05", "delta", 0.05),
            ("--workers", "2", "workers", 2),
            ("--aggregated", None, "aggregated", True),
        ],
    )
    def test_each_flag_lands_in_its_field(
        self, captured, tmp_path, capsys, flag, value, field, typed
    ):
        given = [flag] if value is None else [flag, value]
        code, _, err = run_cli(
            capsys, "run", "--dataset", "sushi", "--policy", "mrr-delay", *given,
            "--out", str(tmp_path),
        )
        assert code == 0, err
        assert captured == [ExperimentConfig("sushi", "mrr-delay", **{field: typed})]

    def test_paper_scale_preset_is_gone(self, captured, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_:
            main([
                "run", "--dataset", "sushi", "--policy", "mrr-delay", "--paper-scale",
                "--out", str(tmp_path),
            ])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --paper-scale" in capsys.readouterr().err
        assert captured == []


class TestBoundsCommand:
    def test_c_delta(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "c-delta", "--alpha", "1", "--window", "1000",
            "--k", "6", "--delta", "0.1",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(900900, rel=1e-9)

    def test_n_schedule(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "n-schedule", "--m", "1", "--T", "200000",
            "--mean-delay", "100",
        )
        assert code == 0
        assert out.strip() == "893"

    def test_n_schedule_aggregated(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "n-schedule-aggregated", "--m", "1", "--T", "200000",
            "--mean-delay", "100",
        )
        assert code == 0
        assert out.strip() == "2114"

    def test_rucb_expected(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "rucb-expected", "--k", "2", "--T", "10000",
            "--gaps", "0.1", "--alpha", "2", "--window", "10", "--tau1", "0.5",
        )
        assert code == 0
        assert float(out.strip()) > 0

    def test_rucb_expected_defaults_are_the_calculators(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "rucb-expected", "--k", "3", "--T", "10000",
            "--gaps", "0.1,0.2", "--alpha", "2",
        )
        assert code == 0
        expected = rucb_delay_expected_bound(k=3, t_horizon=10000, gaps=(0.1, 0.2), alpha=2.0)
        assert out == f"{expected}\n"

    def test_rucb_expected_up_front_tau(self, capsys):
        # the paper's up-front form passes tau_1 = tau_m / (M + 1), here 0.9 / 21
        code, out, _ = run_cli(
            capsys, "bounds", "rucb-expected", "--k", "3", "--T", "10000",
            "--gaps", "0.1,0.3", "--alpha", "1.5", "--window", "20",
            "--tau1", repr(0.9 / 21),
        )
        assert code == 0
        assert out == "8056020.8139398545\n"

    @pytest.mark.parametrize("removed", [["--tau-m", "0.9"], ["--use-tau-m"]])
    def test_rucb_expected_reads_tau1_only(self, capsys, removed):
        with pytest.raises(SystemExit) as exit_:
            main(["bounds", *RUCB, "--T", "100", "--alpha", "2", *removed])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err

    @pytest.mark.parametrize("listed", ["0.1,,0.2", "0.1,", "a"])
    def test_malformed_gaps_rejected(self, capsys, listed):
        with pytest.raises(SystemExit) as exit_:
            main([
                "bounds", "mrr-expected", "--k", "3", "--T", "100", "--mean-delay", "1",
                "--gaps", listed,
            ])
        assert exit_.value.code == 2
        assert f"argument --gaps: invalid gaps value: '{listed}'\n" in capsys.readouterr().err

    def test_rucb_expected_alpha_one_fails_cleanly(self, capsys):
        code, out, err = run_cli(
            capsys, "bounds", "rucb-expected", "--k", "2", "--T", "10000",
            "--gaps", "0.1", "--alpha", "1",
        )
        assert code == 2
        assert "error" in err

    def test_mrr_expected(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "mrr-expected", "--k", "2", "--T", "100000",
            "--gaps", "0.1", "--mean-delay", "100",
        )
        assert code == 0
        assert float(out.strip()) > 0

    def test_lower_bound_both_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "lower-bound", "--k", "10", "--T", "100000", "--tau-m", "1",
        )
        assert code == 0
        assert float(out.strip()) == pytest.approx(math.sqrt(10 * 100000), rel=1e-12)
        code, out, _ = run_cli(
            capsys, "bounds", "lower-bound", "--k", "10", "--T", "100000", "--tau-m", "1",
            "--print-delta-star",
        )
        assert float(out.strip()) == pytest.approx(8.385254915624212e-4, rel=1e-9)


# bounds calculators with all but the arguments under test
LOWER = ["lower-bound", "--k", "10", "--tau-m", "1"]
MRR = ["mrr-expected", "--k", "2", "--gaps", "0.1"]
RUCB = ["rucb-expected", "--k", "2", "--gaps", "0.1"]
C_DELTA = ["c-delta", "--window", "1000", "--k", "6"]


class TestOneLineErrors:
    """Inputs that once ended in a traceback or ran on: exit 2, one line naming them."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["--policy", "rucb-delay", "--delay", "det:100000000000000000000000000000"],
                "deterministic delay must be at most 2**62, got 100000000000000000000000000000",
            ),
            (
                ["--policy", "mrr-delay", "--delay", "geometric:1e-320"],
                "geometric parameter 1e-320 too small: its mean 1/p overflows",
            ),
            (
                ["--policy", "rucb-delay", "--alpha", "inf"],
                "alpha must be finite and > 1/2, got inf",
            ),
            (["--policy", "rucb-delay", "--alpha", "0.75"], "alpha must be >= 1, got 0.75"),
            (
                ["--policy", "rucb-baseline", "--alpha", "inf"],
                "alpha must be finite and > 1/2, got inf",
            ),
            *(
                (["--policy", "rrdb-delay", "--delta", d], f"delta must be in (0, 1], got {d}")
                for d in ("0.0", "-1.0", "1.5", "nan")
            ),
        ],
    )
    def test_run(self, tmp_path, capsys, argv, message):
        code, out, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", *argv, "--T", "50", "--runs", "1",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err == f"duelsim: error: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--dataset", "arithmetic", "--seed", "-1"], "base_seed must be >= 0, got -1"),
            (
                ["--dataset", "six_rankers"],
                "unknown dataset 'six_rankers' is neither a built-in nor a file; "
                "built-ins are: arithmetic, car, mslr, six-rankers, sushi, tennis",
            ),
        ],
        ids=["seed-negative", "dataset-misspelt"],
    )
    def test_run_config(self, tmp_path, capsys, argv, message):
        code, out, err = run_cli(
            capsys, "run", *argv, "--policy", "rucb-delay", "--T", "50", "--runs", "1",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err == f"duelsim: error: {message}\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("calculator", ["n-schedule", "n-schedule-aggregated"])
    @pytest.mark.parametrize("mean", ["inf", "nan"])
    def test_n_schedule_mean_delay(self, capsys, calculator, mean):
        code, out, err = run_cli(
            capsys, "bounds", calculator, "--m", "1", "--T", "200000", "--mean-delay", mean
        )
        assert code == 2
        assert out == ""
        assert err == f"duelsim: error: mean delay must be finite and >= 0, got {mean}\n"

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([*LOWER, "--T", "0"], "T must be >= 1, got 0"),
            ([*LOWER, "--T", "-5"], "T must be >= 1, got -5"),
            ([*MRR, "--T", "100000", "--mean-delay", "inf"], "mean delay must be finite and >= 0, got inf"),
            ([*MRR, "--T", "100000", "--mean-delay", "nan"], "mean delay must be finite and >= 0, got nan"),
            ([*MRR, "--T", "100000", "--mean-delay", "-5"], "mean delay must be finite and >= 0, got -5.0"),
            (
                [*MRR, "--T", "100", "--mean-delay", "1e308"],
                "mrr_expected_bound overflows for "
                "{'k': 2, 't_horizon': 100, 'gaps': (0.1,), 'mean_delay': 1e+308}",
            ),
            ([*RUCB, "--T", "0", "--alpha", "2"], "T must be >= 1, got 0"),
            ([*MRR, "--T", "0", "--mean-delay", "1"], "T must be >= 1, got 0"),
            (["n-schedule", "--m", "1", "--T", "0", "--mean-delay", "1"], "T must be >= 1, got 0"),
            (
                ["n-schedule", "--m", "2000", "--T", "100", "--mean-delay", "1"],
                "n_schedule overflows for {'m': 2000, 't_horizon': 100, 'mean_delay': 1.0}",
            ),
            (
                [*C_DELTA, "--alpha", "0.5000001", "--delta", "0.1"],
                "c_delta overflows for {'alpha': 0.5000001, 'm_window': 1000, 'k': 6, 'delta': 0.1}",
            ),
            ([*C_DELTA, "--alpha", "nan", "--delta", "0.1"], "alpha must be finite and > 1/2, got nan"),
            ([*C_DELTA, "--alpha", "1", "--delta", "nan"], "delta must be in (0, 1], got nan"),
            ([*C_DELTA, "--alpha", "1", "--delta", "inf"], "delta must be in (0, 1], got inf"),
            (
                ["c-delta", "--alpha", "1", "--window", "-5", "--k", "6", "--delta", "0.1"],
                "window M must be >= 1, got -5",
            ),
            (
                ["c-delta", "--alpha", "1", "--window", "1000", "--k", "1", "--delta", "0.1"],
                "K must be >= 2, got 1",
            ),
            ([*RUCB, "--T", "100", "--alpha", "inf"], "alpha must be finite and > 1/2, got inf"),
            (
                [*RUCB, "--T", "100", "--alpha", "2", "--window", "-5"],
                "window M must be >= 1, got -5",
            ),
        ],
    )
    def test_bounds_out_of_domain(self, capsys, argv, message):
        code, out, err = run_cli(capsys, "bounds", *argv)
        assert code == 2
        assert out == ""
        assert err == f"duelsim: error: {message}\n"


class TestRunCommand:
    def test_end_to_end_files(self, tmp_path, capsys):
        out_dir = tmp_path / "results"
        code, out, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", "--policy", "mrr-delay",
            "--delay", "geometric:0.1", "--T", "300", "--runs", "2", "--seed", "3",
            "--stride", "50", "--out", str(out_dir),
        )
        assert code == 0, err
        assert (out_dir / "summary.csv").exists()
        assert (out_dir / "runs.csv").exists()
        assert "final mean regret" in out

    def test_repeat_invocation_byte_identical(self, tmp_path, capsys):
        args = [
            "run", "--dataset", "arithmetic", "--policy", "rucb-delay",
            "--delay", "geometric:0.1", "--T", "400", "--runs", "2", "--seed", "0",
            "--window", "50", "--stride", "40",
        ]
        code1, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "a"))
        code2, _, _ = run_cli(capsys, *args, "--out", str(tmp_path / "b"))
        assert code1 == code2 == 0
        assert (tmp_path / "a" / "summary.csv").read_bytes() == (
            tmp_path / "b" / "summary.csv"
        ).read_bytes()

    def test_csv_dataset_path(self, tmp_path, capsys):
        from duelsim import arithmetic_matrix, save_matrix_csv

        path = tmp_path / "custom.csv"
        save_matrix_csv(arithmetic_matrix(4), path)
        code, out, _ = run_cli(
            capsys, "run", "--dataset", str(path), "--policy", "rucb-baseline",
            "--delay", "det:1", "--T", "200", "--runs", "1",
            "--out", str(tmp_path / "r"),
        )
        assert code == 0

    def test_unknown_dataset_one_line_error(self, tmp_path, capsys):
        code, out, err = run_cli(
            capsys, "run", "--dataset", "nope.csv", "--policy", "rucb-delay",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err.startswith("duelsim: error:")
        assert len(err.strip().splitlines()) == 1

    def test_nan_matrix_entry_rejected(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("0.5,0.7,0.8\n0.3,0.5,nan\n0.2,nan,0.5\n")
        code, _, err = run_cli(
            capsys, "run", "--dataset", str(path), "--policy", "rrdb-delay",
            "--T", "2000", "--runs", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "nan outside [0, 1]" in err

    def test_zero_workers_rejected(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", "--policy", "rucb-delay",
            "--T", "100", "--runs", "1", "--workers", "0", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "workers" in err

    def test_aggregated_flag_guard(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", "--policy", "rucb-delay",
            "--aggregated", "--T", "100", "--runs", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "aggregated" in err

    @pytest.mark.parametrize("alpha", ["-1", "0", "0.5"])
    def test_baseline_alpha_at_or_below_half_fails_cleanly(self, tmp_path, capsys, alpha):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", "--policy", "rucb-baseline",
            "--alpha", alpha, "--T", "50", "--runs", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err == f"duelsim: error: alpha must be finite and > 1/2, got {float(alpha)}\n"

    def test_delta_overflowing_log_term_fails_cleanly(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", "--policy", "rrdb-delay",
            "--delta", "1e-320", "--T", "50", "--runs", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err == (
            "duelsim: error: delta 1e-320 too small: K*T/delta overflows for K=10, T=50\n"
        )

    @pytest.mark.parametrize("argv", [["--T", "1"], ["--T", "50", "--delta", "1"]])
    def test_rrdb_delay_accepts_delta_one(self, tmp_path, capsys, argv):
        # the default delta is 1/T, so T = 1 gives delta = 1, inside (0, 1]
        code, _, err = run_cli(
            capsys, "run", "--dataset", "mslr", "--policy", "rrdb-delay", *argv, "--runs", "1",
            "--out", str(tmp_path / "x"),
        )
        assert code == 0, err

    def test_aggregated_mrr_runs(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", "--policy", "mrr-delay",
            "--aggregated", "--delay", "geometric:0.2", "--T", "300", "--runs", "1",
            "--out", str(tmp_path / "agg"),
        )
        assert code == 0, err

    @pytest.mark.parametrize("spec", ["uniform:5", "det:1.5", "uniform:3,x", "geometric:abc"])
    def test_malformed_delay_number_fails_cleanly(self, tmp_path, capsys, spec):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", "--policy", "rucb-delay",
            "--delay", spec, "--T", "100", "--runs", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err == f"duelsim: error: malformed delay spec {spec!r}\n"

    def test_table_delay_with_a_non_number_line_fails_cleanly(self, tmp_path, capsys):
        table = tmp_path / "bad.txt"
        table.write_text("0.5\nx\n")
        code, _, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", "--policy", "rucb-delay",
            "--delay", f"table:{table}", "--T", "100", "--runs", "1",
            "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert err == f"duelsim: error: malformed delay spec 'table:{table}' (line 2)\n"

    def test_bad_delay_spec(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", "--policy", "rucb-delay",
            "--delay", "weird:1", "--T", "100", "--runs", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "delay" in err
