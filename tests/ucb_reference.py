"""Array reference of the ucb_mb episode.

One round at a time on numpy vectors: the bang-per-buck scores plus the
exploration vector, a lexsort for the K best arms, rewards and costs drawn by
two rng.random(K) calls (or two rng.beta calls), fancy-indexed running means
and the suboptimal-play counters, ties to the lowest index. This is the loop
ucb_mb ran before it played on plain floats; tests/test_ucb_engine.py checks
that the package reproduces it bit for bit. It keeps its own copies of the draw,
the exploration term and the termination rule, and reads only the
environment's public fields.
"""

from __future__ import annotations

import math

import numpy as np

from budgetbandits import EpisodeTrace, Family
from budgetbandits.core import RoundRecord


def _beta_on_unit(mean, concentration, rng):
    out = np.asarray(mean, dtype=np.float64).copy()
    interior = (out > 0.0) & (out < 1.0)
    if np.any(interior):
        m = out[interior]
        out[interior] = rng.beta(m * concentration, (1.0 - m) * concentration)
    return out


def reference_draw(env, arms, rng):
    """(rewards, costs) arrays of ``arms``, two draws from ``rng`` per round."""
    a = np.asarray(arms, dtype=np.intp)
    mr = env.mean_rewards[a]
    mc = env.mean_costs[a]
    if env.family is Family.BERNOULLI_SCALED:
        rewards = (rng.random(a.size) < mr).astype(np.float64)
        q = (mc - env.c_min) / (1.0 - env.c_min)
        costs = np.where(rng.random(a.size) < q, 1.0, env.c_min)
    else:
        rewards = _beta_on_unit(mr, env.beta_concentration, rng)
        frac = (mc - env.c_min) / (1.0 - env.c_min)
        costs = env.c_min + (1.0 - env.c_min) * _beta_on_unit(frac, env.beta_concentration, rng)
    return rewards, costs


def _exploration(pulls, t, plays, c_min):
    eps = np.sqrt((plays + 1) * math.log(t) / pulls)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = eps * (1.0 + 1.0 / c_min) / (c_min - eps)
    return np.where(c_min > eps, value, np.inf)


def reference_fold(pulls, mean_r, mean_c, arms, rewards, costs, t_next, plays, c_min):
    """Fold one round into the arrays in place; return the exploration vector at t_next."""
    a = np.asarray(arms, dtype=np.intp)
    m = pulls[a] + 1
    pulls[a] = m
    mean_r[a] += (rewards - mean_r[a]) / m
    mean_c[a] += (costs - mean_c[a]) / m
    return _exploration(pulls, t_next, plays, c_min)


def _sum(values):
    total = 0.0
    for x in values.tolist():
        total += x
    return total


def reference_episode(cfg, env, rng, oracle_arms=None, record=True):
    """One ucb_mb episode, as the array loop plays it; with ``oracle_arms``
    the suboptimal-play counters are kept, ties to the lowest index, and
    returned in extras["suboptimal_counters"]."""
    n, k, c_min = cfg.n_arms, cfg.plays, cfg.c_min
    trace = EpisodeTrace(0.0, 0, 0.0)
    arms = tuple(range(n))
    rewards, costs = reference_draw(env, arms, rng)
    pulls = np.ones(n, dtype=np.int64)
    mean_r, mean_c = rewards.copy(), costs.copy()
    exploration = np.full(n, np.inf)
    counters = np.zeros(n, dtype=np.int64)
    t, remaining = 1, cfg.budget
    while True:
        cost, reward = _sum(costs), _sum(rewards)
        trace.round_costs.append(cost)
        trace.round_rewards.append(reward)
        if cost > remaining:
            trace.stopping_time = t
        else:
            remaining -= cost
            trace.budget_spent += cost
            trace.gain += reward
        if record:
            trace.rounds.append(RoundRecord(t, arms, rewards, costs, None, remaining))
        if trace.stopping_time:
            if oracle_arms is not None:
                trace.extras["suboptimal_counters"] = counters.tolist()
            return trace
        if t > 1:
            exploration = reference_fold(pulls, mean_r, mean_c, arms, rewards, costs, t + 1,
                                         k, c_min)
            if oracle_arms is not None and set(arms) != set(oracle_arms):
                a = np.asarray(arms, dtype=np.intp)
                counters[int(a[counters[a] == counters[a].min()].min())] += 1
        t += 1
        scores = mean_r / mean_c + exploration
        order = np.lexsort((np.arange(n), -scores))
        arms = tuple(int(i) for i in np.sort(order[:k]))
        rewards, costs = reference_draw(env, arms, rng)
