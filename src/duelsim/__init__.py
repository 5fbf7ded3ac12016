"""Dueling-bandit simulation with stochastic delayed conversion feedback."""

from .bounds import (
    c_delta,
    lower_bound_value,
    mrr_expected_bound,
    n_schedule,
    n_schedule_aggregated,
    rucb_delay_expected_bound,
)
from .datasets import (
    arithmetic_matrix,
    builtin,
    hard_instance_pair,
    list_builtin,
    load_matrix_csv,
    save_matrix_csv,
)
from .delays import (
    DelayDistribution,
    deterministic,
    from_table,
    geometric,
    parse_delay_spec,
    uniform_delay,
)
from .environment import (
    DuelingEnvironment,
    PendingOutcome,
    PreferenceMatrix,
    validate_matrix,
)
from .estimator import DelayCorrectedEstimator
from .harness import (
    AggregateResult,
    ExperimentConfig,
    RunTrace,
    run_many,
    run_one,
    write_results,
)
from .policies import (
    MrrDbDelay,
    PolicyAction,
    RrDbDelay,
    RucbBaseline,
    RucbDelay,
    make_policy,
)

__version__ = "0.1.0"

__all__ = [
    "AggregateResult",
    "DelayCorrectedEstimator",
    "DelayDistribution",
    "DuelingEnvironment",
    "ExperimentConfig",
    "MrrDbDelay",
    "PendingOutcome",
    "PolicyAction",
    "PreferenceMatrix",
    "RrDbDelay",
    "RucbBaseline",
    "RucbDelay",
    "RunTrace",
    "arithmetic_matrix",
    "builtin",
    "c_delta",
    "deterministic",
    "from_table",
    "geometric",
    "hard_instance_pair",
    "list_builtin",
    "load_matrix_csv",
    "lower_bound_value",
    "make_policy",
    "mrr_expected_bound",
    "n_schedule",
    "n_schedule_aggregated",
    "parse_delay_spec",
    "rucb_delay_expected_bound",
    "run_many",
    "run_one",
    "save_matrix_csv",
    "uniform_delay",
    "validate_matrix",
    "write_results",
]
