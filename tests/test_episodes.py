"""Episode invariants of all five policies on small random instances.

Every round plays K distinct arms (the confidence-bound policy's first round
plays all N); the budget is never overdrawn; the round that ends a budgeted
episode costs more than the remainder before it and is neither credited nor
charged; and gain and spend are the in-order sums of the credited rounds'
totals, bit for bit.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from budgetbandits import (
    AdversarialEnv,
    BanditConfig,
    StochasticEnv,
    default_t_max,
    episode_rng,
    exp31mb_run,
    exp3mb_run_episode,
    exp3pm_run,
    exp3pmb_run,
    ucb_run_episode,
)
from budgetbandits.core import sum_in_order

C_MIN = 0.5
POLICIES = ("ucb_mb", "exp3_mb", "exp3_1_mb", "exp3_pm", "exp3_pmb")


def make_env(rng, n, adversarial, t_max):
    if adversarial:
        return AdversarialEnv(rewards=rng.random((t_max, n)),
                              costs=C_MIN + (1.0 - C_MIN) * rng.random((t_max, n)))
    return StochasticEnv(mean_rewards=rng.uniform(0.05, 1.0, n),
                         mean_costs=rng.uniform(C_MIN, 1.0, n), c_min=C_MIN,
                         family=rng.choice(["bernoulli_scaled", "beta_scaled"]))


@st.composite
def episodes(draw):
    policy = draw(st.sampled_from(POLICIES))
    n = draw(st.integers(2, 5))
    # the doubling trick's epoch schedule needs K < N
    k = draw(st.integers(1, n - 1 if policy == "exp3_1_mb" else n))
    budget = draw(st.floats(0.25, 12.0))
    horizon = draw(st.integers(2, 12))
    adversarial = policy != "ucb_mb" and draw(st.booleans())
    seed = draw(st.integers(0, 2 ** 16))
    cfg = BanditConfig(n_arms=n, plays=k, budget=budget, c_min=C_MIN, horizon=horizon)
    env = make_env(episode_rng(seed, 0), n, adversarial,
                   max(horizon, default_t_max(budget, k, C_MIN)))
    rng = episode_rng(seed, 1)
    if policy == "ucb_mb":
        trace = ucb_run_episode(cfg, env, rng)
    elif policy == "exp3_mb":
        trace = exp3mb_run_episode(cfg, env, rng, gamma=draw(st.floats(0.05, 1.0)))
    elif policy == "exp3_1_mb":
        trace = exp31mb_run(cfg, env, rng)
    elif policy == "exp3_pm":
        trace = exp3pm_run(cfg, env, rng)
    else:
        trace = exp3pmb_run(cfg, env, rng)
    return policy, cfg, trace


def total(values):
    return sum_in_order(np.asarray(values).tolist())


@settings(max_examples=100, deadline=None)
@given(episodes())
def test_episode_invariants(episode):
    policy, cfg, trace = episode
    rounds = trace.rounds
    assert [r.t for r in rounds] == list(range(1, len(rounds) + 1))
    for r in rounds:
        plays = cfg.n_arms if policy == "ucb_mb" and r.t == 1 else cfg.plays
        assert len(r.arms) == len(set(r.arms)) == plays
        assert all(0 <= a < cfg.n_arms for a in r.arms)
    if policy == "exp3_pm":
        # fixed horizon: every round is credited and no cost is paid
        assert len(rounds) == cfg.horizon and trace.stopping_time == cfg.horizon + 1
        assert trace.gain == sum_in_order(total(r.rewards) for r in rounds)
        assert trace.budget_spent == 0.0
        return

    assert trace.budget_spent <= cfg.budget
    assert trace.stopping_time == len(rounds)
    *credited, last = rounds
    remaining = cfg.budget
    for r in credited:
        assert total(r.costs) <= remaining
        remaining -= total(r.costs)
        assert r.budget_remaining == remaining
    # the terminating round overdraws the remainder before it and is left out
    assert last.budget_remaining == remaining
    assert total(last.costs) > remaining
    assert trace.gain == sum_in_order(total(r.rewards) for r in credited)
    assert trace.budget_spent == sum_in_order(total(r.costs) for r in credited)
    assert list(trace.round_costs) == [total(r.costs) for r in rounds]
    assert list(trace.round_rewards) == [total(r.rewards) for r in rounds]
