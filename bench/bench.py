#!/usr/bin/env python3
"""duelsim benchmark: three hot-loop workloads, end-to-end and per-layer metrics.

    python3 bench/bench.py --workload rucb-window --seed 0 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics in fresh child processes: several
time set-up alone, then one times its set-up and repeats the workload's
whole experiment (run_many + write_results, workers=1) until --seconds have
passed.  Values are medians over those samples.  --trace 1 measures the
per-layer metrics in this process: it pairs an untraced run_many with a
traced pass over the same seeds through run_one, wrapping duelsim's public
methods from outside (see tracing.py), and requires both to produce
identical regret traces.  Without --workload or --trace, every workload
runs in both modes.

Every replication's output is checked (see checks.py); one that raises or
fails a check counts as failed instead of aborting the run.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
A run record (machine, versions, commit, seed, informational fields) is
written to bench/results/<workload>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

if str(BENCH_DIR) not in sys.path:
    sys.path.insert(0, str(BENCH_DIR))

from workloads import PAPER_STEPS, WORKLOADS  # noqa: E402

MIN_REPS = 3  # untraced repetitions per run, even when --seconds is short
SETUP_REPS = 6  # fresh set-up-only processes per run, after one warm-up
CHILD_SLACK_S = 60  # child timeout beyond --seconds
SETUP_CALL_REPS = 9  # direct resolve / tau_table calls timed per traced run
MACHINE_CAVEAT = (
    "no CPU pinning; other load on the machine moves timings (see nproc and "
    "loadavg_at_start); compare commits only on one machine, runs alternated"
)

PER_LAYER_UNITS = {
    "estimator.matrices.us": "us/step",
    "estimator.ucb_matrix.us": "us/step",
    "estimator.pair_stats.us": "us/step",
    "estimator.pair_stats.calls": "count",
    "estimator.record_play.us": "us/step",
    "estimator.ingest_conversion.us": "us/step",
    "estimator.ingest_conversion.calls": "count",
    "estimator.ingest_accepted_ratio": "ratio",
    "policies.select.us": "us/step",
    "policies.observe.us": "us/step",
    "environment.step.us": "us/step",
    "environment.observe.us": "us/step",
    "delays.sample.us": "us/step",
    "harness.loop.us": "us/step",
    "harness.run_one.peak_alloc_mb": "MiB",
    "harness.write_results.ms": "ms",
    "datasets.resolve.ms": "ms",
    "delays.tau_table.ms": "ms",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


class BenchError(Exception):
    """The benchmark cannot run here (for example, no duelsim sources)."""


def import_duelsim():
    """Import duelsim from this checkout's src/, never from an installed copy."""
    package_dir = SRC / "duelsim"
    if not (package_dir / "__init__.py").is_file():
        raise BenchError(f"no duelsim sources at {package_dir}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import duelsim

    if Path(duelsim.__file__).resolve().parent != package_dir.resolve():
        raise BenchError(f"imported duelsim from {duelsim.__file__}, not {package_dir}")
    return duelsim


# -- child processes: set-up, then untraced repetitions ----------------------


def timed_setup(cfg: dict):
    """Import, dataset, delay law, first environment and policy, timed together."""
    start = time.perf_counter()
    duelsim = import_duelsim()
    import numpy as np

    matrix = duelsim.datasets.resolve(cfg["dataset"])
    delay = duelsim.parse_delay_spec(cfg["delay"])
    env_seq, policy_seq = np.random.SeedSequence(cfg["base_seed"]).spawn(2)
    duelsim.DuelingEnvironment(
        matrix,
        delay,
        np.random.default_rng(env_seq),
        horizon=cfg["horizon"],
        aggregated=cfg["aggregated"],
    )
    duelsim.make_policy(
        cfg["policy"],
        k=matrix.k,
        horizon=cfg["horizon"],
        delay=delay,
        window=cfg["window"],
        aggregated=cfg["aggregated"],
        rng=np.random.default_rng(policy_seq),
    )
    return time.perf_counter() - start, duelsim


def replication_problems(duelsim, config, traces) -> list[list[str]]:
    from checks import trace_problems

    matrix = duelsim.datasets.resolve(config.dataset)
    max_gap = float(matrix.gaps().max())
    return [
        trace_problems(
            tr, k=matrix.k, max_gap=max_gap, horizon=config.horizon, stride=config.trace_stride
        )
        for tr in traces
    ]


def attribute_failure(duelsim, config, exc) -> tuple[int, list[str]]:
    """run_many raised: rerun each seed alone to count the replications at fault."""
    failures = [f"run_many raised {exc!r}"]
    failed = 0
    for r in range(config.runs):
        seed = config.base_seed + r
        try:
            trace = duelsim.run_one(config, seed)
        except Exception as err:  # count the replication, keep going
            failed += 1
            failures.append(f"seed {seed} raised {err!r}")
            continue
        (problems,) = replication_problems(duelsim, config, [trace])
        failed += bool(problems)
        failures.extend(problems)
    return max(failed, 1), failures


def one_repetition(duelsim, config, out_dir: str) -> dict:
    """run_many + write_results once, timed, with every output checked."""
    from checks import runs_csv_problems

    start = time.perf_counter()
    try:
        result = duelsim.run_many(config)
        ran = time.perf_counter()
        duelsim.write_results(result, out_dir)
        written = time.perf_counter()
    except Exception as exc:  # a failed repetition is counted, not fatal
        failed, failures = attribute_failure(duelsim, config, exc)
        return dict(attempted=config.runs, failed=failed, failures=failures)
    per_run = replication_problems(duelsim, config, result.runs)
    runs_csv = os.path.join(out_dir, "runs.csv")
    csv_problems = runs_csv_problems(runs_csv, result.runs)
    with open(runs_csv, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    return dict(
        attempted=config.runs,
        failed=config.runs if csv_problems else sum(bool(p) for p in per_run),
        failures=csv_problems + [msg for p in per_run for msg in p],
        run_many_s=ran - start,
        write_s=written - ran,
        runs_csv_sha256=digest,
        final_mean_regret=float(result.mean[-1]),
    )


def child_experiment(cfg: dict, out_dir: str, seconds: float) -> dict:
    """Set-up, then repetitions of the whole experiment until seconds pass."""
    import resource

    setup_s, duelsim = timed_setup(cfg)
    import numpy as np

    config = duelsim.ExperimentConfig(**cfg)
    reps = []
    start = time.monotonic()
    while len(reps) < MIN_REPS or time.monotonic() - start < seconds:
        reps.append(one_repetition(duelsim, config, out_dir))
    return dict(
        setup_s=setup_s,
        reps=reps,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        numpy=np.__version__,
        duelsim=duelsim.__version__,
    )


def child_main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="bench.py --child")
    parser.add_argument("mode", choices=("setup", "experiment"))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out")
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    cfg = json.loads(args.config)
    if args.mode == "setup":
        out = dict(setup_s=timed_setup(cfg)[0])
    else:
        out = child_experiment(cfg, args.out, args.seconds)
    print(json.dumps(out))
    return 0


def run_child(mode: str, cfg: dict, *, out_dir: Path | None = None, seconds: float = 0.0) -> dict:
    """Run this file as a fresh child process; returns its JSON report."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", mode, "--config", json.dumps(cfg)]
    if mode == "experiment":
        cmd += ["--out", str(out_dir), "--seconds", str(seconds)]
    timeout = seconds + CHILD_SLACK_S
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"{mode} child timed out after {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- summaries -----------------------------------------------------------------


def summarize(values: list[float], unit: str) -> dict:
    """Median with quartiles, sample count and the samples themselves."""
    out = dict(value=statistics.median(values), unit=unit, samples=len(values), values=values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out


def measure_untraced(cfg: dict, out_dir: Path, seconds: float) -> dict:
    run_child("setup", cfg)  # compiles bytecode and warms the file cache
    setup_s = [run_child("setup", cfg)["setup_s"] for _ in range(SETUP_REPS)]
    child = run_child("experiment", cfg, out_dir=out_dir, seconds=seconds)
    setup_s.append(child["setup_s"])
    reps = child["reps"]
    timed = [r for r in reps if "run_many_s" in r]  # ran to the end, checked or not
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    failures = [msg for r in reps for msg in r["failures"]]
    if not timed:
        raise RuntimeError("every repetition raised: " + "; ".join(failures[:5]))
    digests = sorted({r["runs_csv_sha256"] for r in timed})
    if len(digests) > 1:
        failures.append(f"runs.csv differs between repetitions: {digests}")
    steps = cfg["horizon"] * cfg["runs"]
    metrics = dict(
        steps_per_s=summarize([steps / r["run_many_s"] for r in timed], "steps/s"),
        experiment_s=summarize([r["run_many_s"] + r["write_s"] for r in timed], "s"),
        setup_s=summarize(setup_s, "s"),
        peak_rss_mb=dict(value=child["peak_rss_mb"], unit="MiB", samples=1),
    )
    steps_per_s = metrics["steps_per_s"]["value"]
    return dict(
        correct=failed == 0 and len(digests) == 1,
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        extra=dict(
            failed_frac=dict(value=failed / attempted, unit="ratio", samples=attempted),
        ),
        info=dict(
            final_mean_regret=timed[0]["final_mean_regret"],
            runs_csv_sha256=digests[0],
            paper_scale_projection_s=dict(
                value=PAPER_STEPS / steps_per_s,
                derived="200000 steps x 100 runs / median steps_per_s",
            ),
            numpy=child["numpy"],
            duelsim=child["duelsim"],
        ),
        failures=failures,
    )


def measure_traced(cfg: dict, out_dir: Path, seconds: float) -> dict:
    import tracemalloc

    from checks import same_trace
    from tracing import Tracer, install

    duelsim = import_duelsim()
    import numpy as np

    config = duelsim.ExperimentConfig(**cfg)
    seeds = [config.base_seed + r for r in range(config.runs)]
    steps = config.horizon * config.runs

    def timed_ms(fn, *args):
        samples = []
        for _ in range(SETUP_CALL_REPS):
            start = time.perf_counter_ns()
            fn(*args)
            samples.append((time.perf_counter_ns() - start) / 1e6)
        return statistics.median(samples)

    resolve_ms = timed_ms(duelsim.datasets.resolve, config.dataset)
    delay = config.delay_distribution()
    tau_table_ms = timed_ms(delay.tau_table, config.window)
    matrix = duelsim.datasets.resolve(config.dataset)

    def factory(matrix, rng):
        return duelsim.make_policy(
            config.policy,
            k=matrix.k,
            horizon=config.horizon,
            delay=config.delay_distribution(),
            alpha=config.alpha,
            window=config.window,
            delta=config.delta,
            aggregated=config.aggregated,
            rng=rng,
        )

    # memory pass: never timed
    tracemalloc.start()
    duelsim.run_one(config, seeds[0], matrix=matrix)
    peak_alloc_mb = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()

    layer_us: dict[str, list[float]] = {}
    untraced_us, traced_us, coverage, write_ms = [], [], [], []
    attempted = failed = 0
    failures: list[str] = []
    start = time.monotonic()
    while not traced_us or time.monotonic() - start < seconds:
        t0 = time.perf_counter()
        reference = duelsim.run_many(config)
        untraced_us.append((time.perf_counter() - t0) * 1e6 / steps)

        tracer = Tracer()
        restore = install(tracer, duelsim)
        try:
            t0 = time.perf_counter()
            traces = []
            for seed in seeds:
                try:
                    traces.append(
                        tracer.call(
                            "harness.run_one", duelsim.run_one, config, seed,
                            matrix=matrix, policy_factory=factory,
                        )
                    )
                except Exception as exc:  # count the replication, keep going
                    traces.append(None)
                    failures.append(f"traced seed {seed} raised {exc!r}")
            traced_us.append((time.perf_counter() - t0) * 1e6 / steps)
            tracer.call("harness.write_results", duelsim.write_results, reference, out_dir)
        finally:
            restore()

        attempted += len(seeds)
        for tr, ref, p in zip(traces, reference.runs, replication_problems(duelsim, config, reference.runs)):
            if tr is None:
                failed += 1
                continue
            (own,) = replication_problems(duelsim, config, [tr])
            p += own
            if not same_trace(tr, ref):
                p.append(f"seed {tr.seed}: traced regret trace differs from untraced")
            failed += bool(p)
            failures.extend(p)

        totals = tracer.totals()
        run_one = totals["harness.run_one"]
        coverage.append(1.0 - run_one["self_ns"] / run_one["total_ns"])
        write_ms.append(totals["harness.write_results"]["total_ns"] / 1e6)
        for metric, unit in PER_LAYER_UNITS.items():
            if unit == "us/step":
                span = metric.removesuffix(".us")
                own = run_one if span == "harness.loop" else totals.get(span, {})
                layer_us.setdefault(metric, []).append(own.get("self_ns", 0) / 1e3 / steps)

    ingest = totals.get("estimator.ingest_conversion", {})
    ingest_calls = ingest.get("calls", 0)
    metrics = {name: summarize(values, "us/step") for name, values in layer_us.items()}
    metrics.update(
        {
            "estimator.pair_stats.calls": dict(
                value=totals.get("estimator.pair_stats", {}).get("calls", 0), unit="count"
            ),
            "estimator.ingest_conversion.calls": dict(value=ingest_calls, unit="count"),
            # 0 when no conversion reached the estimator
            "estimator.ingest_accepted_ratio": dict(
                value=ingest.get("accepted", 0) / ingest_calls if ingest_calls else 0.0,
                unit="ratio",
            ),
            "harness.run_one.peak_alloc_mb": dict(value=peak_alloc_mb, unit="MiB", samples=1),
            "harness.write_results.ms": summarize(write_ms, "ms"),
            "datasets.resolve.ms": dict(value=resolve_ms, unit="ms", samples=SETUP_CALL_REPS),
            "delays.tau_table.ms": dict(value=tau_table_ms, unit="ms", samples=SETUP_CALL_REPS),
            "trace.coverage": summarize(coverage, "ratio"),
            "trace.overhead": dict(
                value=statistics.median(traced_us) / statistics.median(untraced_us),
                unit="ratio",
                samples=len(traced_us),
            ),
        }
    )
    return dict(
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={name: metrics[name] for name in PER_LAYER_UNITS},
        extra=dict(
            untraced_us_per_step=summarize(untraced_us, "us/step"),
            traced_us_per_step=summarize(traced_us, "us/step"),
        ),
        info=dict(numpy=np.__version__, duelsim=duelsim.__version__, spans=tracer.tree()),
        failures=failures,
    )


# -- run record and output ----------------------------------------------------


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    workload = WORKLOADS[name]
    cfg = workload.config(seed)
    loadavg = os.getloadavg()
    measure = measure_traced if trace else measure_untraced
    result = measure(cfg, RESULTS / name, seconds)
    record = dict(
        workload=name,
        why=workload.why,
        seed=seed,
        trace=trace,
        seconds=seconds,
        config=cfg,
        machine=dict(
            caveat=MACHINE_CAVEAT,
            nproc=os.cpu_count(),
            loadavg_at_start=loadavg,
            platform=platform.platform(),
        ),
        python=platform.python_version(),
        git_commit=git_commit(ROOT),
        **result,
    )
    RESULTS.mkdir(parents=True, exist_ok=True)
    with open(RESULTS / f"{name}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return record


def print_record(record: dict) -> None:
    print(f"== {record['workload']} (seed {record['seed']}, trace {record['trace']})")
    for name, m in {**record["metrics"], **record["extra"]}.items():
        spread = f"  q1 {m['q1']:.6g} q3 {m['q3']:.6g}" if "q1" in m else ""
        samples = f"  n={m['samples']}" if "samples" in m else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{samples}{spread}")
    for name, value in record["info"].items():
        if name != "spans":
            print(f"{name}: {value}")
    for msg in record["failures"]:
        print(f"FAILED: {msg}")


def result_line(records: list[dict]) -> str:
    multi = len(records) > 1
    metrics = {}
    for rec in records:
        prefix = f"{rec['workload']}/" if multi else ""
        for name, m in rec["metrics"].items():
            metrics[prefix + name] = dict(value=m["value"], unit=m["unit"])
    return json.dumps(
        dict(
            correct=all(r["correct"] for r in records),
            attempted=sum(r["attempted"] for r in records),
            failed=sum(r["failed"] for r in records),
            metrics=metrics,
        )
    )


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        return child_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), help="default: both")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    modes = [args.trace] if args.trace is not None else [0, 1]
    try:
        import_duelsim()
        records = [
            run_workload(name, args.seed, args.seconds, trace)
            for name in names
            for trace in modes
        ]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    for record in records:
        print_record(record)
    print(result_line(records))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
