"""Golden digests of runs.csv: the random-draw and arithmetic contract.

Each case pins the sha256 of the runs.csv that write_results produces for
one small seeded experiment.  A refactor of the hot loop (estimator,
policies, environment, harness) must leave every digest unchanged; a
deliberate change of the draw order or of the statistics' floating-point
arithmetic re-pins them and says so in CHANGES.md.

The environment draws its outcomes and delays in fixed chunks of plays
(see environment.py), so a digest depends on the plays alone, not on how
the harness splits them into step and play_run calls.  Under det no delay
is drawn, so the det cases also equal the one-uniform-per-play stream.

The digests depend on numpy's Generator streams and float formatting, so
a numpy release that changes either would also move them.

runs.csv holds only regret, so each case also pins every run's
(declared winner, active arms), which the policies' winner rules decide.
"""

import hashlib

import numpy as np
import pytest

from duelsim import (
    ExperimentConfig,
    run_many,
    save_matrix_csv,
    validate_matrix,
    write_results,
)

GOLDEN = {
    ("rucb-delay", "det:1", False): (
        "f1af3d9c080d5c7b8d2bceb8105b382ba113839d041b363836e7d29da13051aa"
    ),
    ("rucb-delay", "geometric:0.1", False): (
        "037d18b2c70cbce0507a990dfcfeea5c21284470195d1e16bfebd7f8eb06253a"
    ),
    ("rrdb-delay", "det:1", False): (
        "e60b6a7e98e4451cf39f55fe57fa02ec6313789a8275f5effaed837cd58bc77c"
    ),
    ("rrdb-delay", "geometric:0.1", False): (
        "7ae7454e7e0486009dc398b183a91d1dab9dc80495a55992865d884aeeb31b46"
    ),
    ("mrr-delay", "det:1", False): (
        "515d99500fed95ef2fd476d2d3292e8e2cccff8b4fa6a64586964b3f3378fb81"
    ),
    ("mrr-delay", "geometric:0.1", False): (
        "3689e3978f5cbbe8e2623a9a28861d0b5f64ce1900e71bf609908654814de316"
    ),
    ("rucb-baseline", "det:1", False): (
        "f1af3d9c080d5c7b8d2bceb8105b382ba113839d041b363836e7d29da13051aa"
    ),
    ("rucb-baseline", "geometric:0.1", False): (
        "90dac9a7a2b8ab3a17e953e1f0ae5e19d6e7f15992bd6b709275429265b6592a"
    ),
    ("mrr-delay", "det:1", True): (
        "e568b9a44657970eac19e2b0f84e7332d9bc61856698cd1846c314f2d8cff7fe"
    ),
    ("mrr-delay", "geometric:0.1", True): (
        "f4f344cf500b51e67364abc870f0f34c81b39c34a65bf2c593b1177f2f7a6640"
    ),
}

# mrr-delay past round 1: at T=2000 every case above stops inside the first
# round, so these pin end_round, carry-over and a sole survivor.
# (policy, delay, aggregated, horizon) -> digest.  Seed 11 ends det:5 with
# (0,) from the end of round 4 on, and geometric:0.1 aggregated with (0, 1, 2).
ROUND_GOLDEN = {
    ("mrr-delay", "det:5", False, 20_000): (
        "167ded4a819ecb55623e3b06227aceb03b5a536c6b9367d3f009613f14c627ab"
    ),
    ("mrr-delay", "geometric:0.1", True, 60_000): (
        "ed7a283348a0497ab77563fe93220000645b1674ebf62e1237fc1b9a53ad15f9"
    ),
}

# (policy, delay, aggregated, horizon) -> per-run (winner, active), seeds 11, 12
ALL_ACTIVE = (0, 1, 2, 3, 4)
OUTCOMES = {
    ("rucb-delay", "det:1", False, 2000): [(0, None)] * 2,
    ("rucb-delay", "geometric:0.1", False, 2000): [(0, None)] * 2,
    ("rrdb-delay", "det:1", False, 2000): [(None, (0, 1, 2))] * 2,
    ("rrdb-delay", "geometric:0.1", False, 2000): [(None, (0, 1, 2))] * 2,
    ("mrr-delay", "det:1", False, 2000): [(0, ALL_ACTIVE)] * 2,
    ("mrr-delay", "geometric:0.1", False, 2000): [(0, ALL_ACTIVE)] * 2,
    ("rucb-baseline", "det:1", False, 2000): [(0, None)] * 2,
    ("rucb-baseline", "geometric:0.1", False, 2000): [(0, None)] * 2,
    ("mrr-delay", "det:1", True, 2000): [(0, ALL_ACTIVE)] * 2,
    ("mrr-delay", "geometric:0.1", True, 2000): [(0, ALL_ACTIVE)] * 2,
    ("mrr-delay", "det:5", False, 20_000): [(0, (0,))] * 2,
    ("mrr-delay", "geometric:0.1", True, 60_000): [(0, (0, 1, 2))] * 2,
}


@pytest.fixture(scope="module")
def steep_csv(tmp_path_factory):
    """Five arms, arm i beats arm j w.p. 0.5 + 0.1 (j - i): wide enough gaps
    that rrdb-delay eliminates within the horizon."""
    idx = np.arange(5)
    path = tmp_path_factory.mktemp("golden") / "steep5.csv"
    save_matrix_csv(validate_matrix((5.0 + (idx[None, :] - idx[:, None])) / 10.0), path)
    return str(path)


def _digest(tmp_path, steep_csv, policy, delay, aggregated, horizon):
    """sha256 of runs.csv; also checks the runs' (winner, active) against OUTCOMES."""
    config = ExperimentConfig(
        dataset=steep_csv,
        policy=policy,
        delay=delay,
        horizon=horizon,
        runs=2,
        base_seed=11,
        window=40,
        trace_stride=50,
        aggregated=aggregated,
    )
    result = run_many(config)
    outcomes = [(tr.winner, tr.active) for tr in result.runs]
    assert outcomes == OUTCOMES[(policy, delay, aggregated, horizon)]
    write_results(result, tmp_path)
    return hashlib.sha256((tmp_path / "runs.csv").read_bytes()).hexdigest()


@pytest.mark.parametrize(
    "policy,delay,aggregated", list(GOLDEN), ids=lambda x: str(x).lower()
)
def test_runs_csv_digest(tmp_path, steep_csv, policy, delay, aggregated):
    digest = _digest(tmp_path, steep_csv, policy, delay, aggregated, 2000)
    assert digest == GOLDEN[(policy, delay, aggregated)]


@pytest.mark.parametrize(
    "policy,delay,aggregated,horizon", list(ROUND_GOLDEN), ids=lambda x: str(x).lower()
)
def test_runs_csv_digest_across_rounds(
    tmp_path, steep_csv, policy, delay, aggregated, horizon
):
    digest = _digest(tmp_path, steep_csv, policy, delay, aggregated, horizon)
    assert digest == ROUND_GOLDEN[(policy, delay, aggregated, horizon)]
