import math

import pytest

from duelsim import policies
from duelsim.cli import build_parser, main


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

    def test_aggregated_mrr_runs(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", "--policy", "mrr-delay",
            "--aggregated", "--delay", "geometric:0.2", "--T", "300", "--runs", "1",
            "--out", str(tmp_path / "agg"),
        )
        assert code == 0, err

    def test_bad_delay_spec(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "run", "--dataset", "arithmetic", "--policy", "rucb-delay",
            "--delay", "weird:1", "--T", "100", "--runs", "1", "--out", str(tmp_path / "x"),
        )
        assert code == 2
        assert "delay" in err
