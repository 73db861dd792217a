"""Rewrite the golden corpus of seeded CLI outputs.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regen.py

Each case directory holds a run configuration (config.json), the sweep
budgets (budgets.txt) and the four outputs the CLI writes for them:
run.json (`run`), trace.csv (`run --trace-csv`), bounds.json (`bounds`) and
sweep.csv (`sweep --budgets`). tests/test_golden.py produces the outputs
again and compares them byte for byte. A change that alters any golden byte
regenerates the corpus with this script and says in CHANGES.md which files
changed and why.

The sweep budgets are unsorted and hold a duplicate; all but the exp3_mb
cases tuned by the oracle also hold a budget below the cost of the first
round (the oracle gain there is 0, which the oracle tuning cannot use).
"""

from __future__ import annotations

import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
OUTPUTS = ("run.json", "trace.csv", "bounds.json", "sweep.csv")


def _adversarial(seed: int, n: int, plays: int, budget: float, c_min: float,
                 rational: bool = False, skew: bool = False) -> dict:
    rng = np.random.default_rng(seed)
    t_max = math.ceil(budget / (plays * c_min)) + 1
    if rational:
        # rewards above costs in every round: the doubling trick's assumption
        rewards = 0.7 + 0.3 * rng.random((t_max, n))
        costs = c_min + 0.2 * rng.random((t_max, n))
    else:
        rewards = rng.random((t_max, n))
        costs = c_min + (1.0 - c_min) * rng.random((t_max, n))
    if skew:
        # arm 0 far ahead of the rest, so that its weight soon needs capping
        rewards[:, 0] = 1.0
        costs[:, 0] = c_min
        rewards[:, 1:] *= 0.2
    return {"type": "adversarial", "rewards": np.round(rewards, 3).tolist(),
            "costs": np.round(costs, 3).tolist()}


def _stochastic(family: str, rewards: list[float], costs: list[float], c_min: float) -> dict:
    return {"type": "stochastic", "family": family, "mean_rewards": rewards,
            "mean_costs": costs, "c_min": c_min}


def _case(policy: dict, environment: dict, n: int, plays: int, budget: float,
          budgets: list[float], seed: int, replications: int = 3, c_min: float = 0.5,
          horizon: int | None = None) -> tuple[dict, list[float]]:
    config = {"n_arms": n, "plays": plays, "budget": budget, "c_min": c_min}
    if horizon is not None:
        config["horizon"] = horizon
    doc = {"config": config, "policy": policy, "environment": environment,
           "replications": replications, "base_seed": seed}
    return doc, budgets


BERNOULLI = _stochastic("bernoulli_scaled", [0.9, 0.8, 0.5, 0.4], [0.6, 0.7, 0.6, 0.9], 0.5)
BETA = _stochastic("beta_scaled", [0.9, 0.6, 0.5, 0.7, 0.3], [0.5, 0.8, 0.6, 0.9, 0.7], 0.5)
BETA_9 = _stochastic("beta_scaled", [0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.35, 0.3, 0.2],
                     [0.6, 0.7, 0.5, 0.9, 0.6, 0.8, 0.55, 0.75, 1.0], 0.5)

CASES = {
    "ucb_bernoulli": _case({"name": "ucb_mb"}, BERNOULLI, 4, 2, 30.0,
                           [30, 10, 1.5, 22.5, 10], 11),
    "ucb_beta_n9": _case({"name": "ucb_mb"}, BETA_9, 9, 3, 25.0,
                         [25, 3, 12.5, 25, 7], 12),
    "exp3_mb_gamma_adversarial": _case({"name": "exp3_mb", "gamma": 0.3},
                                       _adversarial(13, 5, 2, 14.0, 0.5), 5, 2, 14.0,
                                       [14, 5, 0.75, 9.5, 5], 13),
    "exp3_mb_g_adversarial": _case({"name": "exp3_mb", "g": 20.0},
                                   _adversarial(14, 5, 2, 14.0, 0.5), 5, 2, 14.0,
                                   [9, 14, 0.75, 9, 3.5], 14),
    "exp3_mb_oracle_lower_bound_tuned": _case({"name": "exp3_mb", "g": "oracle"},
                                              {"type": "lower_bound"}, 6, 2, 16.0,
                                              [16, 6, 11.5, 6], 15),
    "exp3_mb_gamma_bernoulli": _case({"name": "exp3_mb", "gamma": 0.2}, BERNOULLI, 4, 2,
                                     16.0, [16, 0.75, 8, 11.25, 8], 16),
    "exp3_mb_capping_n9": _case({"name": "exp3_mb", "gamma": 0.05},
                                _adversarial(17, 9, 8, 80.0, 0.5, skew=True), 9, 8, 80.0,
                                [80, 12, 3.5, 47.25, 12], 17),
    "exp3_mb_oracle_greedy_n24": _case({"name": "exp3_mb", "g": "oracle"},
                                       _adversarial(18, 24, 12, 24.0, 0.5), 24, 12, 24.0,
                                       [24, 13, 18.5, 13], 18, replications=2),
    "exp3_1_mb_adversarial": _case({"name": "exp3_1_mb"},
                                   _adversarial(19, 6, 2, 18.0, 0.5, rational=True), 6, 2,
                                   18.0, [18, 6, 0.5, 12.25, 6], 19),
    "exp3_1_mb_beta": _case({"name": "exp3_1_mb"}, BETA, 5, 2, 15.0,
                            [15, 0.9, 7.5, 11, 7.5], 20),
    "exp3_pm_adversarial": _case({"name": "exp3_pm"}, _adversarial(21, 5, 2, 10.0, 0.5),
                                 5, 2, 10.0, [10, 4, 0.6, 7.5, 4], 21, horizon=8),
    "exp3_pm_bernoulli": _case({"name": "exp3_pm"}, BERNOULLI, 4, 2, 10.0,
                               [6, 10, 0.6, 6], 22, horizon=9),
    "exp3_pmb_lower_bound_fixed": _case({"name": "exp3_pmb"},
                                        {"type": "lower_bound", "eps": 0.2}, 5, 2, 14.0,
                                        [14, 4, 0.9, 9.5, 4], 23),
    "exp3_pmb_beta": _case({"name": "exp3_pmb"}, BETA, 5, 3, 15.0,
                           [15, 1.2, 8, 11.5, 8], 24),
}


def produce(case_dir: Path, workdir: Path) -> dict[str, bytes]:
    """The four CLI outputs of the case stored in ``case_dir``, by file name."""
    from budgetbandits.cli import main

    config = str(case_dir / "config.json")
    budgets = (case_dir / "budgets.txt").read_text(encoding="utf-8").strip()
    out = {name: workdir / name for name in OUTPUTS}
    calls = (
        ["run", "--config", config, "--out", str(out["run.json"]),
         "--trace-csv", str(out["trace.csv"])],
        ["bounds", "--config", config, "--out", str(out["bounds.json"])],
        ["sweep", "--config", config, "--budgets", budgets, "--out", str(out["sweep.csv"])],
    )
    for argv in calls:
        code = main(argv)
        if code != 0:
            raise RuntimeError(f"{case_dir.name}: {' '.join(argv[:1])} exited {code}")
    return {name: path.read_bytes() for name, path in out.items()}


def main() -> int:
    for name, (doc, budgets) in CASES.items():
        case_dir = HERE / name
        case_dir.mkdir(exist_ok=True)
        (case_dir / "config.json").write_text(json.dumps(doc) + "\n", encoding="utf-8")
        (case_dir / "budgets.txt").write_text(",".join(f"{b:g}" for b in budgets) + "\n",
                                              encoding="utf-8")
        with tempfile.TemporaryDirectory() as tmp:
            for file_name, data in produce(case_dir, Path(tmp)).items():
                (case_dir / file_name).write_bytes(data)
    return 0


if __name__ == "__main__":
    sys.exit(main())
