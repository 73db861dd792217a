"""Command-line interface.

Subcommands:
  run    -- execute a run specification and emit a regret report as JSON
  bounds -- the theoretical bounds that run attaches to its report, under the
            same flat keys, without playing any episode
  lbenv  -- materialize a lower-bound adversarial instance as JSON
  sweep  -- regret-versus-budget table as CSV

All commands read a JSON config (--config), accept --seed to override the
base seed, exit 0 on success and 2 on a configuration error. JSON reals carry
17 significant digits; CSV reals carry 6.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from typing import Optional

from . import serialize
from .core import ConfigError, env_to_dict
from .harness import (
    RunSpec,
    applicable_bounds,
    lower_bound_env_from_dict,
    prepare,
    run_replications,
    run_spec_from_dict,
)


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc


def _emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text + "\n")
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")


def _spec_with_seed(doc: dict, seed: Optional[int]) -> RunSpec:
    spec = run_spec_from_dict(doc)
    if seed is not None:
        spec = replace(spec, base_seed=seed)
    return spec


def _fmt6(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".6g")
    return str(x)


def cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_with_seed(_load_config(args.config), args.seed)
    traces = [] if args.trace_csv else None
    report = run_replications(spec, record=args.trace_csv is not None, traces_out=traces)
    if args.trace_csv:
        with open(args.trace_csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["replication", "t", "arms", "rewards", "costs",
                             "budget_remaining"])
            for i, trace in enumerate(traces):
                for row in trace.rounds:
                    writer.writerow([
                        i, row.t,
                        ";".join(str(a) for a in row.arms),
                        ";".join(_fmt6(float(r)) for r in row.rewards),
                        ";".join(_fmt6(float(c)) for c in row.costs),
                        _fmt6(row.budget_remaining),
                    ])
    _emit(serialize.dumps(report.to_dict()), args.out)
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    spec = _spec_with_seed(_load_config(args.config), args.seed)
    _emit(serialize.dumps(applicable_bounds(spec, prepare(spec))), args.out)
    return 0


def cmd_lbenv(args: argparse.Namespace) -> int:
    env, eps = lower_bound_env_from_dict(_load_config(args.config), args.seed)
    payload = env_to_dict(env)
    payload["eps"] = eps
    _emit(serialize.dumps(payload), args.out)
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    from .harness import sweep  # local import keeps startup light

    spec = _spec_with_seed(_load_config(args.config), args.seed)
    try:
        budgets = [float(b) for b in args.budgets.split(",") if b.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --budgets list: {exc}") from exc
    if not budgets:
        raise ConfigError("--budgets must list at least one budget")
    rows = sweep(spec, budgets)
    lines = [",".join(["budget", "policy", "mean_gain", "oracle_gain",
                       "mean_regret", "std_error", "bound"])]
    for row in rows:
        lines.append(",".join([
            _fmt6(row["budget"]), row["policy"], _fmt6(row["mean_gain"]),
            _fmt6(row["oracle_gain"]), _fmt6(row["mean_regret"]),
            _fmt6(row["std_error"]), _fmt6(row["bound"]),
        ]))
    _emit("\n".join(lines), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="budgetbandits",
        description="Budget-constrained multi-armed bandit simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a run specification")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--trace-csv", default=None)
    p_run.add_argument("--out", default=None)
    p_run.add_argument("--seed", type=int, default=None)
    p_run.set_defaults(func=cmd_run)

    p_bounds = sub.add_parser("bounds", help="evaluate applicable bounds")
    p_bounds.add_argument("--config", required=True)
    p_bounds.add_argument("--out", default=None)
    p_bounds.add_argument("--seed", type=int, default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_lb = sub.add_parser("lbenv", help="materialize a lower-bound instance")
    p_lb.add_argument("--config", required=True)
    p_lb.add_argument("--out", default=None)
    p_lb.add_argument("--seed", type=int, default=None)
    p_lb.set_defaults(func=cmd_lbenv)

    p_sweep = sub.add_parser("sweep", help="regret-versus-budget CSV")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--budgets", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
