"""Correctness checks on the outputs the CLI writes.

Every check takes the output text and returns a list of problems; an empty
list means the output passed. A CLI call whose output has a problem counts as
a failed call in the benchmark's error rate.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

SWEEP_HEADER = "budget,policy,mean_gain,oracle_gain,mean_regret,std_error,bound"

# subsets evaluated per block by the exact-oracle check; bounds its memory to
# a few (T_max x ORACLE_CHUNK) float arrays
ORACLE_CHUNK = 1024


def _non_finite(value, path: str, problems: list[str]) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            _non_finite(item, f"{path}.{key}", problems)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _non_finite(item, f"{path}[{i}]", problems)
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        problems.append(f"{path} is not a number: {value!r}")
    elif not math.isfinite(value):
        problems.append(f"{path} is not finite: {value!r}")


def check_run_report(text: str, *, policy: str, n_arms: int, plays: int,
                     budget: float, c_min: float, replications: int,
                     horizon: int | None = None) -> list[str]:
    """Invariants every `run` report must satisfy.

    R replications; 1 <= tau and tau - 1 <= ceil(B / (K c_min)); a gain in
    [0, K (tau - 1)] (at most K unit rewards per credited round);
    mean_regret = oracle_gain - mean_gain exactly; K distinct oracle arms
    below N; finite bound values. The fixed-horizon policy also has
    tau = T + 1 in every replication.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems: list[str] = []
    try:
        if doc["policy"] != policy:
            problems.append(f"policy {doc['policy']!r}, expected {policy!r}")
        reps = doc["per_replication"]
        if len(reps) != replications:
            problems.append(f"{len(reps)} replications, expected {replications}")
        tau_max = math.ceil(budget / (plays * c_min))
        for i, rep in enumerate(reps):
            gain, tau = rep["gain"], rep["stopping_time"]
            if not (1 <= tau and tau - 1 <= tau_max):
                problems.append(f"replication {i}: stopping time {tau} outside [1, {tau_max + 1}]")
            if not 0.0 <= gain <= plays * (tau - 1):
                problems.append(f"replication {i}: gain {gain} outside [0, K(tau - 1)]")
            if horizon is not None and tau != horizon + 1:
                problems.append(f"replication {i}: stopping time {tau}, expected T + 1 = {horizon + 1}")
        if doc["mean_regret"] != doc["oracle_gain"] - doc["mean_gain"]:
            problems.append("mean_regret differs from oracle_gain - mean_gain")
        arms = doc["oracle_arms"]
        if (len(arms) != plays or len(set(arms)) != plays
                or not all(isinstance(a, int) and 0 <= a < n_arms for a in arms)):
            problems.append(f"oracle_arms {arms} are not {plays} distinct arms below {n_arms}")
        _non_finite(doc["bound_values"], "bound_values", problems)
    except (KeyError, TypeError, ValueError) as exc:
        problems.append(f"malformed report: {exc!r}")
    return problems


def check_sweep_csv(text: str, *, budgets: tuple[float, ...], policy: str) -> list[str]:
    """One row per budget, in order, with finite gain, regret and bound columns."""
    lines = text.strip().split("\n")
    if lines[0] != SWEEP_HEADER:
        return [f"unexpected sweep header {lines[0]!r}"]
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != len(budgets):
        return [f"{len(rows)} sweep rows, expected {len(budgets)}"]
    problems: list[str] = []
    for budget, row in zip(budgets, rows):
        try:
            if len(row) != 7 or float(row[0]) != budget or row[1] != policy:
                problems.append(f"row {row} does not match budget {budget:g} and policy {policy}")
                continue
            for name, cell in (("mean_gain", row[2]), ("mean_regret", row[4]), ("bound", row[6])):
                if not math.isfinite(float(cell)):
                    problems.append(f"budget {budget:g}: {name} {cell!r} is not finite")
        except ValueError as exc:
            problems.append(f"budget {budget:g}: unparsable row {row}: {exc}")
    return problems


def exact_oracle(rewards: np.ndarray, costs: np.ndarray, plays: int,
                 budget: float) -> tuple[tuple[int, ...], float]:
    """Best fixed K-subset under the budget, by prefix sums over all subsets.

    A subset is credited with every round whose cumulative cost stays within
    the budget. This equals the program's sequential subtraction only where
    every partial sum is exact in floating point, as it is for rewards in
    {0, 1} and costs in {c_min, 1} with c_min a power of two. Ties go to the
    lexicographically smallest subset.
    """
    t_max, n_arms = rewards.shape
    subsets = np.array(list(itertools.combinations(range(n_arms), plays)), dtype=np.intp)
    best_gain, best = -1.0, -1
    for lo in range(0, len(subsets), ORACLE_CHUNK):
        block = subsets[lo:lo + ORACLE_CHUNK]
        cum_cost = costs[:, block].sum(axis=2).cumsum(axis=0)
        cum_gain = np.vstack([np.zeros(len(block)),
                              rewards[:, block].sum(axis=2).cumsum(axis=0)])
        credited = (cum_cost <= budget).sum(axis=0)
        if np.any(credited == t_max):
            raise ValueError("sequence exhausted before the budget")
        gains = cum_gain[credited, np.arange(len(block))]
        i = int(gains.argmax())
        if gains[i] > best_gain:
            best_gain, best = float(gains[i]), lo + i
    return tuple(int(a) for a in subsets[best]), best_gain


def check_oracle(text: str, rewards: np.ndarray, costs: np.ndarray, plays: int,
                 budget: float) -> list[str]:
    """The report's exact oracle must match an independent evaluation."""
    try:
        doc = json.loads(text)
        reported = (tuple(doc["oracle_arms"]), doc["oracle_gain"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"report has no oracle: {exc!r}"]
    try:
        expected = exact_oracle(rewards, costs, plays, budget)
    except ValueError as exc:
        return [f"oracle check failed: {exc}"]
    if reported != expected:
        return [f"oracle {reported} differs from the exact oracle {expected}"]
    return []
