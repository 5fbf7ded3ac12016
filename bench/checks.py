"""Output checks that hold under any valid random stream.

They never require the true winner to be identified: at benchmark horizons
RucbDelay often declares none, and mrr-delay's pick varies by seed.
"""

from __future__ import annotations

import numpy as np

# Relative slack for the t * max_gap ceiling: the cumulative sum rounds once
# per step.
REGRET_CEILING_RTOL = 1e-9


def expected_times(horizon: int, stride: int) -> np.ndarray:
    times = list(range(stride, horizon + 1, stride))
    if horizon % stride:
        times.append(horizon)
    return np.asarray(times, dtype=np.int64)


def trace_problems(trace, *, k: int, max_gap: float, horizon: int, stride: int) -> list[str]:
    """Every way one replication's RunTrace breaks the output contract."""
    problems = []
    times = np.asarray(trace.times)
    regret = np.asarray(trace.regret, dtype=np.float64)
    if not np.array_equal(times, expected_times(horizon, stride)):
        problems.append(f"seed {trace.seed}: trace times do not follow stride {stride}")
    if regret.shape != times.shape:
        problems.append(f"seed {trace.seed}: {regret.size} regret values for {times.size} times")
    elif not np.all(np.isfinite(regret)):
        problems.append(f"seed {trace.seed}: non-finite cumulative regret")
    else:
        if regret.size and (regret[0] < 0.0 or np.any(np.diff(regret) < 0.0)):
            problems.append(f"seed {trace.seed}: cumulative regret decreases")
        ceiling = times * max_gap * (1.0 + REGRET_CEILING_RTOL)
        if np.any(regret > ceiling):
            problems.append(f"seed {trace.seed}: regret exceeds t * max gap")
    if trace.winner is not None and trace.winner not in range(k):
        problems.append(f"seed {trace.seed}: winner {trace.winner!r} is not an arm")
    if trace.active is not None and (
        not trace.active
        or len(set(trace.active)) != len(trace.active)
        or not set(trace.active) <= set(range(k))
    ):
        problems.append(f"seed {trace.seed}: active set {trace.active!r} is not a subset of the arms")
    return problems


def runs_csv_problems(path, traces) -> list[str]:
    """runs.csv must hold exactly the in-memory traces, value for value."""
    expected = ["seed,t,regret"]
    for tr in traces:
        expected.extend(f"{tr.seed},{int(t)},{float(r)!r}" for t, r in zip(tr.times, tr.regret))
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if lines != expected:
        return [f"{path} does not match the replications it was written from"]
    return []


def same_trace(a, b) -> bool:
    """True when two RunTraces are identical, value for value."""
    return (
        a.seed == b.seed
        and np.array_equal(a.times, b.times)
        and np.array_equal(a.regret, b.regret)
        and a.winner == b.winner
        and a.active == b.active
    )
