"""Command-line entry point.

Subcommands:
  duelsim run ...                 seeded experiment, CSV traces to --out
  duelsim bounds <calculator> ... print one closed-form value
  duelsim datasets list           built-in preference matrices

Flags are named (dest=) after the ExperimentConfig field or calculator
parameter they set and are left out when absent, so every default is
ExperimentConfig's or the calculator's own. `run` lists its flags by hand,
one per ExperimentConfig field plus --out; each `bounds` subcommand
generates its flags and help from its calculator's signature and docstring.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from . import bounds, datasets, policies
from .harness import ExperimentConfig, run_many, write_results

# bounds flags not named --<parameter with dashes>
FLAG_NAMES = {"t_horizon": "--T", "m_window": "--window", "tau_1": "--tau1"}


# argparse names a type by __name__ in its error: "invalid gaps value: '0.1,'"
def gaps(text: str) -> tuple[float, ...]:
    return tuple(map(float, text.split(",")))


def _lower_bound(k: int, t_horizon: int, tau_m: float, print_delta_star: bool = False) -> float:
    """Regret scale sqrt(T K / tau_M), or with --print-delta-star the hard-instance gap."""
    delta_star, scale = bounds.lower_bound_value(k, t_horizon, tau_m)
    return delta_star if print_delta_star else scale


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duelsim",
        description="Dueling-bandit simulator with stochastic delayed feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser(
        "run", help="run a seeded experiment", argument_default=argparse.SUPPRESS
    )
    run.add_argument("--dataset", required=True, help="built-in name or CSV path")
    run.add_argument("--policy", required=True, choices=policies.policy_names())
    run.add_argument("--alpha", type=float)
    run.add_argument(
        "--delay", help="geometric:<p> | det:<d> | uniform:<lo>,<hi> | table:<file>"
    )
    run.add_argument("--T", dest="horizon", type=int, help="time horizon")
    run.add_argument("--runs", type=int)
    run.add_argument("--seed", dest="base_seed", type=int)
    run.add_argument("--window", type=int, help="censoring window M")
    run.add_argument("--stride", dest="trace_stride", type=int, help="trace sampling stride")
    run.add_argument("--delta", type=float, help="round-robin confidence")
    run.add_argument("--out", default="duelsim_results")
    run.add_argument("--workers", type=int)
    run.add_argument(
        "--aggregated",
        action="store_true",
        help="anonymous per-step conversion counts (mrr-delay only)",
    )

    bnd = sub.add_parser("bounds", help="evaluate a closed-form calculator")
    calc = bnd.add_subparsers(dest="calculator", required=True)

    for name, function in (
        ("c-delta", bounds.c_delta),
        ("rucb-expected", bounds.rucb_delay_expected_bound),
        ("n-schedule", bounds.n_schedule),
        ("n-schedule-aggregated", bounds.n_schedule_aggregated),
        ("mrr-expected", bounds.mrr_expected_bound),
        ("lower-bound", _lower_bound),
    ):
        summary = inspect.getdoc(function).splitlines()[0]
        c = calc.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        c.set_defaults(function=function)
        for p in inspect.signature(function).parameters.values():
            flag = FLAG_NAMES.get(p.name, "--" + p.name.replace("_", "-"))
            if p.default is False:
                c.add_argument(flag, dest=p.name, action="store_true")
            else:
                kind = int if p.name in bounds.COUNTS else gaps if p.name == "gaps" else float
                c.add_argument(flag, dest=p.name, type=kind, required=p.default is p.empty)

    ds = sub.add_parser("datasets", help="dataset registry")
    ds.add_argument("action", choices=["list"])
    return parser


def _cmd_run(args: dict) -> int:
    out = args.pop("out")
    config = ExperimentConfig(**args)
    result = run_many(config)
    write_results(result, out)
    final = float(result.mean[-1])
    print(
        f"{config.policy} on {config.dataset}: {config.runs} runs, T={config.horizon}, "
        f"final mean regret {final:.2f}; wrote {out}/summary.csv"
    )
    return 0


def _cmd_bounds(args: dict) -> int:
    del args["calculator"]
    print(args.pop("function")(**args))
    return 0


def _cmd_datasets(args: dict) -> int:
    for name, k in datasets.list_builtin():
        print(f"{name} (K={k})")
    return 0


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = {"run": _cmd_run, "bounds": _cmd_bounds, "datasets": _cmd_datasets}
    try:
        return command[args.pop("command")](args)
    except (ValueError, OSError) as exc:
        print(f"duelsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
