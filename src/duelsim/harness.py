"""Seeded experiment runner: replications, aggregation, CSV output.

Each replication draws from two independent substreams of its seed (one
for the environment, one for the policy), so traces are reproducible bit
for bit and invariant to how the other replications are scheduled.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import datasets
from .delays import DelayDistribution, parse_delay_spec
from .environment import DuelingEnvironment, PreferenceMatrix, RegretTracker
from .policies import make_policy

PAPER_HORIZON = 200_000
PAPER_RUNS = 100


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one experiment."""

    dataset: str
    policy: str
    delay: str = "geometric:0.01"
    horizon: int = 50_000
    runs: int = 20
    base_seed: int = 0
    alpha: float = 1.0
    window: int = 1000
    delta: float | None = None
    trace_stride: int = 100
    aggregated: bool = False
    workers: int = 1

    def __post_init__(self):
        if self.horizon < 1 or self.runs < 1 or self.workers < 1:
            raise ValueError("horizon, runs and workers must be >= 1")
        if self.window < 1 or self.trace_stride < 1:
            raise ValueError("window and trace_stride must be >= 1")

    def delay_distribution(self) -> DelayDistribution:
        return parse_delay_spec(self.delay)

    def at_paper_scale(self) -> "ExperimentConfig":
        return replace(self, horizon=PAPER_HORIZON, runs=PAPER_RUNS)


@dataclass(frozen=True)
class RunTrace:
    """Cumulative-regret series of one replication plus its outcome."""

    seed: int
    times: np.ndarray
    regret: np.ndarray
    winner: int | None
    active: tuple[int, ...] | None


@dataclass(frozen=True)
class AggregateResult:
    times: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    runs: list[RunTrace]


def run_one(
    config: ExperimentConfig,
    seed: int,
    *,
    matrix: PreferenceMatrix | None = None,
    policy_factory=None,
) -> RunTrace:
    """One replication: the select -> sample -> observe loop for T steps.

    Per step t the policy first receives whatever converted at t, then
    picks a pair, the environment draws the hidden outcome, and the true
    regret accumulates.  policy_factory(matrix, rng) overrides the named
    policy (used for scripted policies in tests).
    """
    if matrix is None:
        matrix = datasets.resolve(config.dataset)
    delay = config.delay_distribution()
    env_seq, policy_seq = np.random.SeedSequence(seed).spawn(2)
    env = DuelingEnvironment(
        matrix,
        delay,
        np.random.default_rng(env_seq),
        horizon=config.horizon,
        aggregated=config.aggregated,
    )
    policy_rng = np.random.default_rng(policy_seq)
    if policy_factory is not None:
        policy = policy_factory(matrix, policy_rng)
    else:
        policy = make_policy(
            config.policy,
            k=matrix.k,
            horizon=config.horizon,
            delay=delay,
            alpha=config.alpha,
            window=config.window,
            delta=config.delta,
            aggregated=config.aggregated,
            rng=policy_rng,
        )
    tracker = RegretTracker(matrix)
    stride = config.trace_stride
    horizon = config.horizon
    times: list[int] = []
    regret: list[float] = []
    if config.aggregated:
        deliver, feed = env.observe_aggregated, policy.observe_count
    else:
        deliver, feed = env.observe_new, policy.observe
    select, step, charge = policy.select, env.step, tracker.instant_regret
    for t in range(1, horizon + 1):
        feed(t, deliver(t))
        u, v = select(t)
        step(u, v)
        charge(u, v)
        if t % stride == 0 or t == horizon:
            times.append(t)
            regret.append(tracker.cumulative)
    winner = policy.declared_winner() if hasattr(policy, "declared_winner") else None
    active = getattr(policy, "active_arms", None)
    return RunTrace(
        seed=seed,
        times=np.asarray(times, dtype=np.int64),
        regret=np.asarray(regret, dtype=np.float64),
        winner=winner,
        active=active,
    )


def run_many(config: ExperimentConfig, *, policy_factory=None) -> AggregateResult:
    """All replications with pointwise mean and sample standard deviation."""
    if config.workers > 1 and policy_factory is not None:
        raise ValueError("policy_factory runs in-process only; set workers=1")
    seeds = [config.base_seed + r for r in range(config.runs)]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            traces = list(pool.map(run_one, [config] * len(seeds), seeds))
    else:
        matrix = datasets.resolve(config.dataset)
        traces = [
            run_one(config, seed, matrix=matrix, policy_factory=policy_factory)
            for seed in seeds
        ]
    stack = np.vstack([tr.regret for tr in traces])
    mean = stack.mean(axis=0)
    if config.runs > 1:
        std = stack.std(axis=0, ddof=1)
    else:
        std = np.zeros_like(mean)
    return AggregateResult(times=traces[0].times, mean=mean, std=std, runs=traces)


def write_results(result: AggregateResult, out_dir) -> None:
    """Write summary.csv (t, mean_regret, std_regret) and runs.csv (seed, t, regret).

    Output is deterministic byte for byte for a given result.
    """
    os.makedirs(out_dir, exist_ok=True)
    summary_path = os.path.join(out_dir, "summary.csv")
    runs_path = os.path.join(out_dir, "runs.csv")
    try:
        with open(summary_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("t,mean_regret,std_regret\n")
            for t, m, s in zip(result.times, result.mean, result.std):
                fh.write(f"{int(t)},{float(m)!r},{float(s)!r}\n")
        with open(runs_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("seed,t,regret\n")
            for tr in result.runs:
                for t, r in zip(tr.times, tr.regret):
                    fh.write(f"{tr.seed},{int(t)},{float(r)!r}\n")
    except OSError as exc:
        raise OSError(f"writing results under {out_dir}: {exc}") from exc
