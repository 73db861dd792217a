"""ucb_mb's plain-float episode against the array reference (tests/ucb_reference.py).

Every field of every trace must be equal bit for bit: gain, stopping time and
spend (compared by float.hex), the round totals, the extras (the suboptimal-play
counters, with an oracle arm set attached) and, with recording on, every
RoundRecord.
"""

import numpy as np
import pytest

from budgetbandits import (
    BanditConfig,
    Family,
    StochasticEnv,
    episode_rng,
    ucb_init,
    ucb_run_episode,
    ucb_select,
    ucb_update,
)
from budgetbandits.core import draw_round, sum_in_order
from budgetbandits.ucb import UcbState
from ucb_reference import reference_draw, reference_episode, reference_fold

C_MIN = 0.8  # the exploration guard c_min > eps passes after a few dozen pulls
FAMILIES = (Family.BERNOULLI_SCALED, Family.BETA_SCALED)
SHAPES = sorted({(n, k) for n in (1, 2, 3, 4, 8, 9, 32) for k in (1, 2, n - 1, n)
                 if 1 <= k <= n})
MODES = ("record", "no_record", "oracle")


def bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


def assert_same_trace(got, want):
    assert got.gain.hex() == want.gain.hex()
    assert got.stopping_time == want.stopping_time
    assert got.budget_spent.hex() == want.budget_spent.hex()
    assert bits(got.round_costs) == bits(want.round_costs)
    assert bits(got.round_rewards) == bits(want.round_rewards)
    assert got.extras == want.extras
    assert len(got.rounds) == len(want.rounds)
    for g, w in zip(got.rounds, want.rounds):
        assert (g.t, g.arms) == (w.t, w.arms)
        assert all(type(a) is int for a in g.arms)
        assert bits(g.rewards) == bits(w.rewards)
        assert bits(g.costs) == bits(w.costs)
        assert g.probabilities is None and w.probabilities is None
        assert float(g.budget_remaining).hex() == float(w.budget_remaining).hex()


def make_env(family, n, seed):
    rng = episode_rng(seed, 0)
    return StochasticEnv(mean_rewards=rng.uniform(0.05, 1.0, n),
                         mean_costs=rng.uniform(C_MIN, 1.0, n), c_min=C_MIN, family=family)


def both(cfg, env, seed, oracle_arms=None, record=True):
    got = ucb_run_episode(cfg, env, episode_rng(seed, 1), oracle_arms=oracle_arms, record=record)
    want = reference_episode(cfg, env, episode_rng(seed, 1), oracle_arms=oracle_arms,
                             record=record)
    return got, want


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("n,k", SHAPES)
@pytest.mark.parametrize("mode", MODES)
def test_episode_equals_reference(family, n, k, mode):
    seed = 1000 * n + 10 * k + FAMILIES.index(family)
    env = make_env(family, n, seed)
    # about 15 pulls per arm: at small K finite confidence bounds decide the
    # later rounds
    cfg = BanditConfig(n_arms=n, plays=k, budget=(n + 15.0 * n) * 0.9, c_min=C_MIN)
    oracle = tuple(range(n - k, n)) if mode == "oracle" else None
    got, want = both(cfg, env, seed, oracle_arms=oracle, record=mode != "no_record")
    assert_same_trace(got, want)
    assert got.stopping_time > 2
    assert ("suboptimal_counters" in got.extras) == (mode == "oracle")
    if mode == "no_record":
        assert got.rounds == []


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_long_episode_equals_reference(family):
    # past the exploration phase: most rounds play the arms with finite bounds
    env = make_env(family, 4, 77)
    cfg = BanditConfig(n_arms=4, plays=2, budget=600.0, c_min=C_MIN)
    got, want = both(cfg, env, 77, oracle_arms=(0, 1))
    assert_same_trace(got, want)
    assert got.stopping_time > 300


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
def test_step_calls_equal_episode(family):
    # ucb_init, then ucb_select / draw_round / ucb_update round by round
    env = make_env(family, 5, 31)
    cfg = BanditConfig(n_arms=5, plays=2, budget=120.0, c_min=C_MIN)
    want = ucb_run_episode(cfg, env, episode_rng(31, 1), oracle_arms=(3, 4))
    rng = episode_rng(31, 1)
    state, cost, reward = ucb_init(cfg, env, rng, oracle_arms=(3, 4))
    costs, rewards, remaining = [cost], [reward], cfg.budget - cost
    arms = [tuple(range(5))]
    while True:
        played = tuple(ucb_select(state))
        round_rewards, round_costs = draw_round(env, played, rng)
        cost = sum_in_order(round_costs)
        arms.append(played)
        costs.append(cost)
        rewards.append(sum_in_order(round_rewards))
        if cost > remaining:
            break
        remaining -= cost
        ucb_update(state, played, round_rewards, round_costs, state.t + 1)
    assert bits(costs) == bits(want.round_costs)
    assert bits(rewards) == bits(want.round_rewards)
    assert arms == [r.arms for r in want.rounds]


@pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (9, 3), (32, 4)])
def test_update_equals_reference_fold(n, k):
    # means, pulls and every bonus, also where a one-ulp drift would not
    # flip a decision within an episode
    rng = episode_rng(n, k)
    pulls = rng.integers(1, 200, n)
    mean_r, mean_c = rng.random(n), C_MIN + (1.0 - C_MIN) * rng.random(n)
    state = UcbState(t=2, plays=k, c_min=C_MIN, pull_counts=pulls.tolist(),
                     mean_reward=mean_r.tolist(), mean_cost=mean_c.tolist(),
                     exploration=[0.0] * n, suboptimal_counters=[0] * n)
    for t in range(3, 300):
        arms = np.sort(rng.choice(n, k, replace=False))
        rewards, costs = rng.random(k), C_MIN + (1.0 - C_MIN) * rng.random(k)
        ucb_update(state, arms.tolist(), rewards.tolist(), costs.tolist(), t)
        exploration = reference_fold(pulls, mean_r, mean_c, arms, rewards, costs, t, k, C_MIN)
        assert state.pull_counts == pulls.tolist()
        assert bits(state.mean_reward) == bits(mean_r)
        assert bits(state.mean_cost) == bits(mean_c)
        assert bits(state.exploration) == bits(exploration)
        assert state.t == t


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (9, 3)])
def test_budget_below_init_round(family, n, k):
    env = make_env(family, n, 5)
    cfg = BanditConfig(n_arms=n, plays=k, budget=0.5 * n * C_MIN, c_min=C_MIN)
    got, want = both(cfg, env, 5, oracle_arms=tuple(range(k)))
    assert_same_trace(got, want)
    assert (got.stopping_time, got.gain, got.budget_spent) == (1, 0.0, 0.0)


@pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
@pytest.mark.parametrize("arms", [(0,), (1, 3), (0, 2, 4), tuple(range(9))])
def test_draw_round_equals_two_draws(family, arms):
    # Bernoulli: one random(2K) gives the uniforms of two random(K) calls
    env = StochasticEnv(mean_rewards=[0.2, 0.5, 1.0, 0.7, 0.9, 0.4, 0.6, 0.3, 0.8],
                        mean_costs=[0.6, 1.0, 0.7, 0.5, 0.9, 0.55, 0.8, 0.65, 0.75],
                        c_min=0.5, family=family)
    one, two = episode_rng(3, 4), episode_rng(3, 4)
    for _ in range(50):
        rewards, costs = draw_round(env, arms, one)
        assert all(type(x) is float for x in rewards + costs)
        want_r, want_c = reference_draw(env, arms, two)
        assert bits(rewards) == bits(want_r)
        assert bits(costs) == bits(want_c)
    assert one.random() == two.random()  # both streams stand at the same place


def test_one_call_of_2k_uniforms_is_two_calls_of_k():
    for k in (1, 2, 5, 32):
        one, two = episode_rng(8, k), episode_rng(8, k)
        joined = np.concatenate([two.random(k), two.random(k)])
        assert bits(one.random(2 * k)) == bits(joined)

