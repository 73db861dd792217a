"""The benchmark's workloads: the CLI calls of one report, built from a seed.

A report is every CLI call a workload makes for one seed, from config file to
written output. Each workload is shaped so that one layer of the simulator
does most of the work:

* ucb_sweep        -- regret-vs-budget sweep of the stochastic policy; only
                      `ucb` and `core.sample_round` work.
* exp3_adversarial -- every exponential-weights variant on an oblivious
                      instance; capping, probabilities, rounding, lookup and
                      the estimate/update step do nearly all the work.
* oracle_large     -- the lower-bound hard instance at C(24, 4) = 10626
                      subsets; the exact oracle is most of the report.

Configs carry only the parameters their policy reads: `horizon` only for the
fixed-horizon policy, no `workers`, and no `gamma` next to `g`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from checks import check_oracle, check_run_report, check_sweep_csv


@dataclass(frozen=True)
class Call:
    """One CLI call: its arguments, the file it writes and the check on it."""

    argv: list[str]
    out: Path
    check: Callable[[str], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    replications: int
    build: Callable[["Workload", int, Path], list[Call]]

    def calls(self, seed: int, workdir: Path) -> list[Call]:
        """Write the configs of the report for ``seed``; return its calls."""
        return self.build(self, seed, workdir)


def _config_file(workdir: Path, stem: str, doc: dict) -> Path:
    path = workdir / f"{stem}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def _run_call(workdir: Path, stem: str, doc: dict,
              check: Callable[[str], list[str]]) -> Call:
    config = _config_file(workdir, stem, doc)
    out = workdir / f"{stem}.out"
    return Call(["run", "--config", str(config), "--out", str(out)], out, check)


# the acceptance suite's scaled-Bernoulli instance behind the regret-curve test
UCB_MEAN_REWARDS = [0.9, 0.9, 0.7, 0.6]
UCB_MEAN_COSTS = [0.5, 0.6, 0.7, 0.75]
UCB_BUDGETS = (500.0, 1000.0, 2000.0, 4000.0)


def _ucb_sweep(w: Workload, seed: int, workdir: Path) -> list[Call]:
    doc = {
        "config": {"n_arms": 4, "plays": 2, "budget": UCB_BUDGETS[-1], "c_min": 0.5},
        "policy": {"name": "ucb_mb"},
        "environment": {"type": "stochastic", "mean_rewards": UCB_MEAN_REWARDS,
                        "mean_costs": UCB_MEAN_COSTS, "c_min": 0.5},
        "replications": w.replications,
        "base_seed": seed,
    }
    config = _config_file(workdir, "ucb_sweep", doc)
    out = workdir / "ucb_sweep.csv"
    argv = ["sweep", "--config", str(config), "--budgets",
            ",".join(f"{b:g}" for b in UCB_BUDGETS), "--out", str(out)]
    return [Call(argv, out, lambda text: check_sweep_csv(text, budgets=UCB_BUDGETS,
                                                         policy="ucb_mb"))]


EXP3_N, EXP3_K, EXP3_CMIN, EXP3_B, EXP3_T = 8, 2, 0.5, 1000.0, 600
EXP3_POLICIES = ({"name": "exp3_mb", "g": "oracle"}, {"name": "exp3_1_mb"},
                 {"name": "exp3_pm"}, {"name": "exp3_pmb"})


def _exp3_adversarial(w: Workload, seed: int, workdir: Path) -> list[Call]:
    # rewards >= 0.7 > costs in every round, so the doubling trick's
    # reward-covers-cost assumption holds and no warning fires
    rng = np.random.default_rng(seed)
    t_max = math.ceil(EXP3_B / (EXP3_K * EXP3_CMIN)) + 1
    env = {"type": "adversarial",
           "rewards": (0.7 + 0.3 * rng.random((t_max, EXP3_N))).tolist(),
           "costs": (0.5 + 0.2 * rng.random((t_max, EXP3_N))).tolist()}
    calls = []
    for policy in EXP3_POLICIES:
        name = policy["name"]
        config = {"n_arms": EXP3_N, "plays": EXP3_K, "budget": EXP3_B, "c_min": EXP3_CMIN}
        horizon = EXP3_T if name == "exp3_pm" else None
        if horizon is not None:
            config["horizon"] = horizon
        doc = {"config": config, "policy": policy, "environment": env,
               "replications": w.replications, "base_seed": seed}

        def check(text: str, name=name, horizon=horizon) -> list[str]:
            return check_run_report(text, policy=name, n_arms=EXP3_N, plays=EXP3_K,
                                    budget=EXP3_B, c_min=EXP3_CMIN,
                                    replications=w.replications, horizon=horizon)

        calls.append(_run_call(workdir, name, doc, check))
    return calls


LB_N, LB_K, LB_CMIN, LB_B = 24, 4, 0.5, 800.0


def _oracle_large(w: Workload, seed: int, workdir: Path) -> list[Call]:
    doc = {
        "config": {"n_arms": LB_N, "plays": LB_K, "budget": LB_B, "c_min": LB_CMIN},
        "policy": {"name": "exp3_mb", "g": "oracle"},
        "environment": {"type": "lower_bound"},
        "replications": w.replications,
        "base_seed": seed,
    }

    def check(text: str) -> list[str]:
        problems = check_run_report(text, policy="exp3_mb", n_arms=LB_N, plays=LB_K,
                                    budget=LB_B, c_min=LB_CMIN,
                                    replications=w.replications)
        # the hidden good set and the sequences come from the seed, so fetch
        # the instance through the program rather than re-deriving it
        from budgetbandits.harness import materialize_environment, run_spec_from_dict

        env = materialize_environment(run_spec_from_dict(doc))
        return problems + check_oracle(text, env.rewards, env.costs, LB_K, LB_B)

    return [_run_call(workdir, "oracle_large", doc, check)]


WORKLOADS = {
    w.name: w for w in (
        Workload("ucb_sweep", 4, _ucb_sweep),
        Workload("exp3_adversarial", 4, _exp3_adversarial),
        Workload("oracle_large", 4, _oracle_large),
    )
}
