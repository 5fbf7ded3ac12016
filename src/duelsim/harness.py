"""Seeded experiment runner: replications, aggregation, CSV output.

Each replication draws from two independent substreams of its seed (one
for the environment, one for the policy), so traces are reproducible bit
for bit and invariant to how the other replications are scheduled.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import bounds, datasets
from .delays import DelayDistribution, parse_delay_spec
from .environment import DRAW_CHUNK, DuelingEnvironment, PreferenceMatrix
from .policies import make_policy


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
        for name in ("horizon", "runs", "window", "trace_stride", "workers"):
            bounds.check_count(name, getattr(self, name), 1)
        bounds.check_count("base_seed", self.base_seed, 0)
        if not isinstance(self.dataset, str):
            raise ValueError(f"dataset must be a built-in name or CSV path, got {self.dataset!r}")
        if not isinstance(self.policy, str):
            raise ValueError(f"policy must be a policy name, got {self.policy!r}")
        if not isinstance(self.delay, str):
            forms = "geometric:<p> | det:<d> | uniform:<lo>,<hi> | table:<file>"
            raise ValueError(f"delay must be a spec string {forms}, got {self.delay!r}")
        bounds.check_bool("aggregated", self.aggregated)
        bounds.check_domain("alpha", self.alpha)
        if self.delta is not None:
            bounds.check_domain("delta", self.delta)

    def delay_distribution(self) -> DelayDistribution:
        return parse_delay_spec(self.delay)


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


def repeated_sum(x: float, c: float, n: int, first: int, stride: int, out: list) -> float:
    """x after n IEEE additions of c, bit for bit the chain x += c, in O(binades).

    Appends to out the running sums after additions first, first + stride,
    ... up to n (first >= 1).  Needs x, c >= 0.  While x + c stays below the
    top of x's binade, every addition lands on the grid of x's ulp q, so it
    moves x by the same d = c rounded to that grid: the nearest multiple of
    q, on a tie the one that leaves x an even multiple, which is the same d
    for every addition once x is even.  So those sums are x + j*d, exact.  An
    odd x on a tie and each binade edge take one plain addition.
    """
    i = 0
    while i < n:
        q = math.ulp(x)  # a power of two, so these quotients are exact
        units = c / q  # inf for a large c on a tiny x: it leaves the binade at once
        if units < 2**53:
            whole, step = int(units), round(units)  # round: half to even
            ticks = int(x / q)
            room = 2**53 - 1 - ticks - whole  # >= 0 iff x + c stays below the binade top
            if room >= 0 and not (units - whole == 0.5 and ticks % 2):
                m = n - i if step == 0 else min(n - i, room // step + 1)  # additions in binade
                d = step * q
                if first - i <= m:
                    js = np.arange(first - i, m + 1, stride)
                    out += (x + js * d).tolist()
                    first += js.size * stride
                x += m * d
                i += m
                continue
        x += c
        i += 1
        if i == first:
            out.append(x)
            first += stride
    return x


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
    regret accumulates.  A policy with select_run (mrr-delay) may commit a
    run of n plays of one pair: the environment plays them in one play_run
    call, the conversions landing inside the run are fed once, at its last
    step, and repeated_sum charges its regret once per binade, bit for bit
    the per-step sums.  A run is at most the window M in standard mode, where
    play_run builds one PendingOutcome per in-run win, and at most
    DRAW_CHUNK plays in aggregated mode, where it returns a count and holds
    only numpy arrays; the cap changes no trace, since the pair order comes
    from the quotas alone.  Other policies play step by step, which
    aggregated mode refuses with a ValueError.
    policy_factory(matrix, rng) overrides the named policy (used for
    scripted policies in tests).
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
    # Python floats: the running sum stays a float, with the same IEEE results
    gaps: list[float] = matrix.gaps().tolist()
    cumulative = 0.0
    stride = config.trace_stride
    horizon = config.horizon
    regret: list[float] = []  # at steps stride, 2*stride, ..., and T
    if config.aggregated:
        deliver, feed = env.observe_aggregated, policy.observe_count
    else:
        deliver, feed = env.observe_new, policy.observe
    select_run = getattr(policy, "select_run", None)
    select, step, play_run = policy.select, env.step, env.play_run
    # a standard run builds one PendingOutcome per win; an aggregated one only counts
    run_cap = DRAW_CHUNK if config.aggregated else config.window
    t = 1
    while t <= horizon:
        feed(t, deliver(t))
        if select_run is None:
            u, v = select(t)
            step(u, v)
            cumulative += (gaps[u] + gaps[v]) / 2.0
            if t % stride == 0:
                regret.append(cumulative)
            t += 1
        else:
            (u, v), n = select_run(t, min(run_cap, horizon + 1 - t))
            feed(t + n - 1, play_run(u, v, n))
            # the run's first multiple of stride is its (-t % stride + 1)-th play
            cumulative = repeated_sum(
                cumulative, (gaps[u] + gaps[v]) / 2.0, n, -t % stride + 1, stride, regret
            )
            t += n
    if horizon % stride:  # the trace always ends at T
        regret.append(cumulative)
    times = np.arange(stride, horizon + stride, stride, dtype=np.int64)
    times[-1] = horizon
    winner = policy.declared_winner() if hasattr(policy, "declared_winner") else None
    active = getattr(policy, "active_arms", None)
    return RunTrace(
        seed=seed,
        times=times,
        regret=np.asarray(regret, dtype=np.float64),
        winner=winner,
        active=active,
    )


def run_many(config: ExperimentConfig, *, policy_factory=None) -> AggregateResult:
    """All replications with pointwise mean and sample standard deviation;
    each seed gets the same run_one call in-process and in the worker pool."""
    if config.workers > 1 and policy_factory is not None:
        raise ValueError("policy_factory runs in-process only; set workers=1")
    seeds = range(config.base_seed, config.base_seed + config.runs)
    matrix = datasets.resolve(config.dataset)  # once, for every replication
    replicate = partial(run_one, config, matrix=matrix, policy_factory=policy_factory)
    if config.workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # costly import: pool path only
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            traces = list(pool.map(replicate, seeds))
    else:
        traces = list(map(replicate, seeds))
    stack = np.vstack([tr.regret for tr in traces])
    mean = stack.mean(axis=0)
    std = stack.std(axis=0, ddof=1) if config.runs > 1 else np.zeros_like(mean)
    return AggregateResult(times=traces[0].times, mean=mean, std=std, runs=traces)


def write_results(result: AggregateResult, out_dir) -> None:
    """Write summary.csv (t, mean_regret, std_regret) and runs.csv (seed, t, regret).

    Output is deterministic byte for byte for a given result.
    """
    # built column by column from tolist() values, whose str and repr are those
    # of the numpy scalars; t is shared by every run, so it is formatted once
    times = list(map(str, result.times.tolist()))
    mean, std = map(repr, result.mean.tolist()), map(repr, result.std.tolist())
    texts = {"summary.csv": ["t,mean_regret,std_regret"], "runs.csv": ["seed,t,regret"]}
    texts["summary.csv"] += map(",".join, zip(times, mean, std))
    for tr in result.runs:
        regret = map(repr, tr.regret.tolist())
        texts["runs.csv"] += map(",".join, zip([str(tr.seed)] * len(times), times, regret))
    os.makedirs(out_dir, exist_ok=True)
    try:
        for name, lines in texts.items():
            with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
                fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"writing results under {out_dir}: {exc}") from exc
