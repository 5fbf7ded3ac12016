"""Self-test of the benchmark at a tiny horizon.

    python3 bench/selftest.py

Runs every workload in both modes, checks that each metric BENCHMARK.json
names is emitted with its unit, that corrupted outputs trip the checks, and
that the benchmark refuses to run without the duelsim sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from dataclasses import replace

import bench
from checks import runs_csv_problems, same_trace, trace_problems
from workloads import WORKLOADS

TINY = dict(horizon=250, runs=2, trace_stride=100)
SCRATCH = bench.RESULTS / "selftest"


def tiny_config(name: str) -> dict:
    return dict(WORKLOADS[name].config(7), **TINY)


class ContractTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(bench.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            cls.spec = json.load(fh)

    def test_workloads_and_units_match_benchmark_json(self):
        self.assertEqual(
            [(w["name"], w["why"]) for w in self.spec["workloads"]],
            [(w.name, w.why) for w in WORKLOADS.values()],
        )
        per_layer = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(per_layer, bench.PER_LAYER_UNITS)

    def test_every_workload_runs_and_emits_every_metric(self):
        for name in WORKLOADS:
            for trace, measure in ((0, bench.measure_untraced), (1, bench.measure_traced)):
                with self.subTest(workload=name, trace=trace):
                    out = measure(tiny_config(name), SCRATCH / name, 0.0)
                    self.assertTrue(out["correct"], out["failures"])
                    self.assertEqual(out["failed"], 0)
                    self.assertGreaterEqual(out["attempted"], 1)
                    key = "per_layer" if trace else "end_to_end"
                    expected = {m["name"]: m["unit"] for m in self.spec[key]}
                    emitted = {n: m["unit"] for n, m in out["metrics"].items()}
                    self.assertEqual(emitted, expected)
                    for m in out["metrics"].values():
                        self.assertIsInstance(m["value"], (int, float))


class CorruptionTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.duelsim = bench.import_duelsim()
        cls.config = cls.duelsim.ExperimentConfig(**tiny_config("rrdb-sweep"))
        cls.matrix = cls.duelsim.datasets.resolve(cls.config.dataset)
        cls.trace = cls.duelsim.run_one(cls.config, cls.config.base_seed)

    def problems(self, trace):
        return trace_problems(
            trace,
            k=self.matrix.k,
            max_gap=float(self.matrix.gaps().max()),
            horizon=self.config.horizon,
            stride=self.config.trace_stride,
        )

    def test_valid_trace_passes(self):
        self.assertEqual(self.problems(self.trace), [])

    def test_corrupted_traces_trip_the_checks(self):
        regret = self.trace.regret
        times = self.trace.times
        corruptions = {
            "decreasing": replace(self.trace, regret=regret[::-1].copy()),
            "non-finite": replace(self.trace, regret=regret * float("nan")),
            "above ceiling": replace(self.trace, regret=regret + times * 10.0),
            "wrong stride": replace(self.trace, times=times + 1),
            "winner not an arm": replace(self.trace, winner=self.matrix.k),
            "active not a subset": replace(self.trace, active=(0, self.matrix.k)),
            "active repeats": replace(self.trace, active=(0, 0)),
        }
        for label, bad in corruptions.items():
            with self.subTest(label):
                self.assertNotEqual(self.problems(bad), [])
                self.assertFalse(same_trace(bad, self.trace))

    def test_tampered_runs_csv_trips_the_check(self):
        result = self.duelsim.run_many(self.config)
        out = SCRATCH / "tamper"
        self.duelsim.write_results(result, out)
        path = out / "runs.csv"
        self.assertEqual(runs_csv_problems(path, result.runs), [])
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1] + "1"
        path.write_text("\n".join(lines) + "\n")
        self.assertNotEqual(runs_csv_problems(path, result.runs), [])


class BareDirectoryTest(unittest.TestCase):
    def test_refuses_to_run_without_sources(self):
        bare = SCRATCH / "bare"
        shutil.rmtree(bare, ignore_errors=True)
        (bare / "bench").mkdir(parents=True)
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        for src in bench.BENCH_DIR.glob("*.py"):
            shutil.copy(src, bare / "bench")
        proc = subprocess.run(
            [sys.executable, "bench/bench.py", "--workload", "mrr-anon", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
