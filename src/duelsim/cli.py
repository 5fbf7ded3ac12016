"""Command-line entry point.

Subcommands:
  duelsim run ...                 seeded experiment, CSV traces to --out
  duelsim bounds <calculator> ... print one closed-form value
  duelsim datasets list           built-in preference matrices
"""

from __future__ import annotations

import argparse
import sys

from . import bounds, datasets, policies
from .errors import DuelSimError
from .harness import ExperimentConfig, run_many, write_results


def _parse_gaps(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.split(",") if x.strip())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="duelsim",
        description="Dueling-bandit simulator with stochastic delayed feedback",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a seeded experiment")
    run.add_argument("--dataset", required=True, help="built-in name or CSV path")
    run.add_argument("--policy", required=True, choices=policies.policy_names())
    run.add_argument("--alpha", type=float, default=1.0)
    run.add_argument(
        "--delay",
        default="geometric:0.01",
        help="geometric:<p> | det:<d> | uniform:<lo>,<hi> | table:<file>",
    )
    run.add_argument("--T", type=int, default=50_000, help="time horizon")
    run.add_argument("--runs", type=int, default=20)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--window", type=int, default=1000, help="censoring window M")
    run.add_argument("--stride", type=int, default=100, help="trace sampling stride")
    run.add_argument("--delta", type=float, default=None, help="round-robin confidence")
    run.add_argument("--out", default="duelsim_results")
    run.add_argument("--workers", type=int, default=1)
    run.add_argument(
        "--paper-scale",
        action="store_true",
        help="override horizon/runs to 200000 x 100",
    )
    run.add_argument(
        "--aggregated",
        action="store_true",
        help="anonymous per-step conversion counts (mrr-delay only)",
    )

    bnd = sub.add_parser("bounds", help="evaluate a closed-form calculator")
    calc = bnd.add_subparsers(dest="calculator", required=True)

    c = calc.add_parser("c-delta")
    c.add_argument("--alpha", type=float, required=True)
    c.add_argument("--window", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.add_argument("--delta", type=float, required=True)

    r = calc.add_parser("rucb-expected")
    r.add_argument("--k", type=int, required=True)
    r.add_argument("--T", type=int, required=True)
    r.add_argument("--gaps", type=_parse_gaps, required=True)
    r.add_argument("--alpha", type=float, required=True)
    r.add_argument("--window", type=int, default=1000)
    r.add_argument("--tau1", type=float, default=1.0)
    r.add_argument("--tau-m", type=float, default=1.0)
    r.add_argument("--use-tau-m", action="store_true")

    for name in ("n-schedule", "n-schedule-aggregated"):
        n = calc.add_parser(name)
        n.add_argument("--m", type=int, required=True)
        n.add_argument("--T", type=int, required=True)
        n.add_argument("--mean-delay", type=float, required=True)

    m = calc.add_parser("mrr-expected")
    m.add_argument("--k", type=int, required=True)
    m.add_argument("--T", type=int, required=True)
    m.add_argument("--gaps", type=_parse_gaps, required=True)
    m.add_argument("--mean-delay", type=float, required=True)

    lb = calc.add_parser("lower-bound")
    lb.add_argument("--k", type=int, required=True)
    lb.add_argument("--T", type=int, required=True)
    lb.add_argument("--tau-m", type=float, required=True)
    lb.add_argument(
        "--print-delta-star",
        action="store_true",
        help="print the hard-instance gap instead of the regret scale",
    )

    ds = sub.add_parser("datasets", help="dataset registry")
    ds.add_argument("action", choices=["list"])
    return parser


def _cmd_run(args) -> int:
    config = ExperimentConfig(
        dataset=args.dataset,
        policy=args.policy,
        delay=args.delay,
        horizon=args.T,
        runs=args.runs,
        base_seed=args.seed,
        alpha=args.alpha,
        window=args.window,
        delta=args.delta,
        trace_stride=args.stride,
        aggregated=args.aggregated,
        workers=args.workers,
    )
    if args.paper_scale:
        config = config.at_paper_scale()
    result = run_many(config)
    write_results(result, args.out)
    final = float(result.mean[-1])
    print(
        f"{config.policy} on {config.dataset}: {config.runs} runs, T={config.horizon}, "
        f"final mean regret {final:.2f}; wrote {args.out}/summary.csv"
    )
    return 0


def _cmd_bounds(args) -> int:
    name = args.calculator
    if name == "c-delta":
        value = bounds.c_delta(args.alpha, args.window, args.k, args.delta)
    elif name == "rucb-expected":
        inputs = bounds.BoundInputs(
            k=args.k,
            t_horizon=args.T,
            gaps=args.gaps,
            alpha=args.alpha,
            m_window=args.window,
            tau_1=args.tau1,
            tau_m=args.tau_m,
        )
        value = bounds.rucb_delay_expected_bound(inputs, use_tau_m=args.use_tau_m)
    elif name == "n-schedule":
        value = bounds.n_schedule(args.m, args.T, args.mean_delay)
    elif name == "n-schedule-aggregated":
        value = bounds.n_schedule_aggregated(args.m, args.T, args.mean_delay)
    elif name == "mrr-expected":
        inputs = bounds.BoundInputs(
            k=args.k, t_horizon=args.T, gaps=args.gaps, mean_delay=args.mean_delay
        )
        value = bounds.mrr_expected_bound(inputs)
    else:  # lower-bound
        delta_star, scale = bounds.lower_bound_value(args.k, args.T, args.tau_m)
        value = delta_star if args.print_delta_star else scale
    print(value)
    return 0


def _cmd_datasets(args) -> int:
    for name, k in datasets.list_builtin():
        print(f"{name} (K={k})")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        return _cmd_datasets(args)
    except (DuelSimError, ValueError, KeyError, OSError) as exc:
        print(f"duelsim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
