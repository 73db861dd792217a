"""Scalar reference of the four exp3-family episodes.

One replication, one round at a time, every stage on its own 1-d vectors:
cap, probabilities, dependent rounding, observe, then (unless the round
overdraws the budget) estimate and update. This is the per-round loop the
policies ran before the lockstep round engine; tests/test_engine.py checks
that the engine reproduces it bit for bit. It takes the cap and the
probabilities from the numpy map in tests/cap_reference.py, calls the
package's dependent_rounding and draw_round, reads an adversarial round's
row of the reward and cost matrices itself, and keeps its own estimates,
update and termination rule.
"""

from __future__ import annotations

import numpy as np

from budgetbandits import (
    AdversarialEnv,
    EpisodeTrace,
    dependent_rounding,
    epoch_threshold,
    exp3pm_parameters,
    exp3pmb_parameters,
)
from budgetbandits.core import RoundRecord, draw_round, sum_in_order
from cap_reference import compute_cap, compute_probabilities


class _Outcome:
    """The played arms, their rewards and costs as arrays, and the round's
    reward and cost totals, summed in play order."""

    def __init__(self, arms, rewards, costs):
        self.arms = arms
        self.rewards, self.costs = np.array(rewards), np.array(costs)
        self.reward, self.cost = sum_in_order(rewards), sum_in_order(costs)


class _State:
    def __init__(self, n, plays, gamma, rate_of, log_w=0.0, sigma=0.0, alpha=None,
                 conf_scale=None):
        self.log_weights = np.full(n, log_w)
        self.gain_acc = np.zeros(n)
        self.loss_acc = np.zeros(n)
        self.sigma_acc = np.full(n, sigma)
        self.n, self.plays, self.gamma, self.rate_of = n, plays, gamma, rate_of
        self.alpha, self.conf_scale = alpha, conf_scale
        self.t = 1


def _mb_rate(s):
    return s.plays * s.gamma / s.n


def _hp_rate(s):
    return s.gamma * s.plays / (3.0 * s.n)


def _round(policy, s, env, remaining, rng):
    cap = compute_cap(s.log_weights, s.gamma, s.plays, s.n)
    p = compute_probabilities(cap, s.gamma, s.plays)
    arms = tuple(dependent_rounding(s.plays, p.tolist(), rng.random))
    if isinstance(env, AdversarialEnv):
        row = s.t - 1
        outcome = _Outcome(arms, [float(env.rewards[row, j]) for j in arms],
                           [float(env.costs[row, j]) for j in arms])
    else:
        outcome = _Outcome(arms, *draw_round(env, arms, rng))
    if remaining is not None and outcome.cost > remaining:
        return outcome, p
    a = np.asarray(outcome.arms, dtype=np.intp)
    if np.any(p[a] <= 0.0):
        raise ValueError("played arm has zero inclusion probability")
    rhat = np.zeros(s.n)
    chat = np.zeros(s.n)
    rhat[a] = outcome.rewards / p[a]
    chat[a] = outcome.costs / p[a]
    s.gain_acc += rhat
    if policy == "exp3_pm":
        chat = np.zeros_like(chat)
    else:
        s.loss_acc += chat
    rate = s.rate_of(s)
    if policy == "exp3_mb":
        step = rate * (rhat - chat)
        if cap.capped.size:
            step[cap.capped] = 0.0
        s.log_weights += step
    elif policy == "exp3_1_mb":
        s.log_weights[a] += rate * (rhat[a] - chat[a])
    else:
        s.sigma_acc += s.conf_scale / p
        bonus = s.alpha * s.conf_scale / p
        if policy == "exp3_pm":
            step = rate * (rhat + bonus)
        else:
            step = rate * (rhat - chat + bonus)
        if cap.capped.size:
            step[cap.capped] = 0.0
        s.log_weights += step
    s.t += 1
    return outcome, p


def _play(trace, t, outcome, remaining, p, record):
    cost, reward = outcome.cost, outcome.reward
    trace.round_costs.append(cost)
    trace.round_rewards.append(reward)
    if cost > remaining:
        trace.stopping_time = t
    else:
        remaining -= cost
        trace.budget_spent += cost
        trace.gain += reward
    if record:
        trace.rounds.append(RoundRecord(t, outcome.arms, outcome.rewards, outcome.costs,
                                        p, remaining))
    return remaining


def _budgeted(policy, s, env, rng, record, trace, remaining, stop=None):
    while not trace.stopping_time:
        if stop is not None and stop():
            break
        t = s.t
        outcome, p = _round(policy, s, env, remaining, rng)
        remaining = _play(trace, t, outcome, remaining, p, record)
    return remaining


def reference_episode(policy, cfg, env, rng, gamma=None, record=True) -> EpisodeTrace:
    """One episode of ``policy`` (exp3_mb needs ``gamma``), as the scalar loop plays it."""
    n, k = cfg.n_arms, cfg.plays
    trace = EpisodeTrace(0.0, 0, 0.0)
    if policy == "exp3_mb":
        s = _State(n, k, gamma, _mb_rate)
        _budgeted(policy, s, env, rng, record, trace, cfg.budget)
        return trace
    if policy == "exp3_1_mb":
        s = _State(n, k, 1.0, _mb_rate)
        remaining = cfg.budget
        starts = []
        epoch = 0
        while True:
            g_r, gamma_r = epoch_threshold(epoch, n, k, cfg.c_min)
            s.gamma = gamma_r
            s.log_weights[:] = 0.0
            starts.append((epoch, s.t))
            threshold = g_r - n * (1.0 - cfg.c_min) / (k * gamma_r)

            def over():
                diff = s.gain_acc - s.loss_acc
                return float(np.partition(diff, n - k)[n - k:].sum()) > threshold

            remaining = _budgeted(policy, s, env, rng, record, trace, remaining, over)
            if trace.stopping_time:
                trace.extras = {"epoch_starts": starts, "epochs_started": epoch + 1,
                                "epochs_completed": epoch,
                                "gain_acc": s.gain_acc.copy(), "loss_acc": s.loss_acc.copy()}
                return trace
            epoch += 1
    params = (exp3pm_parameters if policy == "exp3_pm" else exp3pmb_parameters)(cfg)
    s = _State(n, k, params.gamma, _hp_rate, params.log_w_init, params.sigma_init,
               params.alpha, params.conf_scale)
    if policy == "exp3_pmb":
        _budgeted(policy, s, env, rng, record, trace, cfg.budget)
        trace.extras["sigma_acc"] = s.sigma_acc.copy()
        return trace
    records = []
    gain = 0.0
    for _ in range(cfg.horizon):
        t = s.t
        outcome, p = _round(policy, s, env, None, rng)
        gain += outcome.reward
        if record:
            records.append(RoundRecord(t, outcome.arms, outcome.rewards, outcome.costs,
                                       p, 0.0))
    return EpisodeTrace(gain, cfg.horizon + 1, 0.0, records, {"sigma_acc": s.sigma_acc.copy()})
