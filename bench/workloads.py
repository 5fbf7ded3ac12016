"""The benchmark's workloads: one fixed experiment configuration each.

A workload names a policy, dataset, delay law and size.  The benchmark
seed becomes the configuration's base_seed; the library receives only the
resulting ExperimentConfig.  This module imports neither numpy nor duelsim,
so a fresh process can time their import as part of set-up.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

PAPER_STEPS = 200_000 * 100  # horizon x runs of one paper-scale curve


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    policy: str
    dataset: str
    delay: str
    horizon: int
    runs: int
    window: int = 1000
    aggregated: bool = False
    trace_stride: int = 100

    def config(self, seed: int) -> dict:
        """Keyword arguments of duelsim.ExperimentConfig for this seed."""
        kwargs = asdict(self)
        del kwargs["name"], kwargs["why"]
        return dict(kwargs, base_seed=seed, workers=1)

    @property
    def steps(self) -> int:
        return self.horizon * self.runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rucb-window",
            why=(
                "paper headline setting; every step rebuilds the whole-matrix "
                "bound over the M-play window, so it exposes estimator read work"
            ),
            policy="rucb-delay",
            dataset="arithmetic",
            delay="geometric:0.01",
            horizon=10_000,
            runs=1,
        ),
        Workload(
            name="rrdb-sweep",
            why=(
                "same estimator through per-pair queries and record/ingest/fold "
                "writes; arms are eliminated mid-run, so select work shifts"
            ),
            policy="rrdb-delay",
            dataset="mslr",
            delay="uniform:50,150",
            horizon=10_000,
            runs=2,
        ),
        Workload(
            name="mrr-anon",
            why=(
                "aggregated anonymous feedback at paper horizon; never touches the "
                "estimator, so environment, delay and harness loop cost dominate"
            ),
            policy="mrr-delay",
            dataset="sushi",
            delay="det:100",
            horizon=200_000,
            runs=1,
            aggregated=True,
        ),
    )
}
