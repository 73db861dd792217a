import math

import numpy as np
import pytest

from budgetbandits import (
    BanditConfig,
    StochasticEnv,
    episode_rng,
    exploration_term,
    ucb_init,
    ucb_run_episode,
    ucb_select,
    ucb_update,
)
from budgetbandits.core import draw_round
from budgetbandits.ucb import UcbState


def same_state(a, b):
    """Two bit_generator.state dicts are equal, arrays included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[key], b[key]) for key in a)
    return np.array_equal(a, b)


def make_state(means_r, means_c, pulls, t, plays=2, c_min=0.5, exploration=None, oracle=None):
    n = len(means_r)
    return UcbState(
        t=t,
        plays=plays,
        c_min=c_min,
        pull_counts=list(pulls),
        mean_reward=[float(x) for x in means_r],
        mean_cost=[float(x) for x in means_c],
        exploration=[0.0] * n if exploration is None else [float(x) for x in exploration],
        suboptimal_counters=[0] * n,
        oracle_arms=oracle,
    )


class TestExplorationTerm:
    def test_hand_value(self):
        # sqrt(2 * 1 / 32) = 0.25 < c_min = 0.5 -> 0.25 * 3 / 0.25 = 3
        assert exploration_term(32, math.e, plays=1, c_min=0.5) == pytest.approx(3.0)

    def test_guard_branch_returns_inf(self):
        assert exploration_term(1, 10 ** 6, plays=1, c_min=0.5) == math.inf

    def test_monotone_decrease_to_zero(self):
        values = [exploration_term(n, 100, plays=2, c_min=0.9) for n in (10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6)]
        assert all(v > w for v, w in zip(values, values[1:]))
        assert values[-1] < 0.05


class TestInit:
    def test_point_mass_env(self):
        cfg = BanditConfig(n_arms=3, plays=2, budget=50.0, c_min=0.5)
        env = StochasticEnv(mean_rewards=[1.0, 1.0, 1.0], mean_costs=[0.5, 0.5, 0.5], c_min=0.5)
        state, cost, gain = ucb_init(cfg, env, episode_rng(0, 1))
        assert np.array_equal(state.pull_counts, [1, 1, 1])
        assert np.array_equal(state.mean_reward, [1.0, 1.0, 1.0])
        assert np.array_equal(state.mean_cost, [0.5, 0.5, 0.5])
        assert np.all(np.isinf(state.exploration))
        assert cost == pytest.approx(1.5)
        assert gain == pytest.approx(3.0)

    def test_fixed_seed_identical(self):
        cfg = BanditConfig(n_arms=4, plays=2, budget=50.0, c_min=0.5)
        env = StochasticEnv(mean_rewards=[0.3, 0.5, 0.7, 0.9],
                            mean_costs=[0.5, 0.6, 0.7, 0.8], c_min=0.5)
        s1, c1, g1 = ucb_init(cfg, env, episode_rng(5, 1))
        s2, c2, g2 = ucb_init(cfg, env, episode_rng(5, 1))
        assert np.array_equal(s1.mean_reward, s2.mean_reward)
        assert np.array_equal(s1.mean_cost, s2.mean_cost)
        assert (c1, g1) == (c2, g2)


class TestSelect:
    def test_all_sentinels_tie_break_to_lowest(self):
        state = make_state([0.5, 0.9, 0.1], [0.5, 0.5, 0.5], [1, 1, 1], t=2,
                           exploration=[math.inf] * 3)
        assert ucb_select(state) == [0, 1]

    def test_direct_ordering(self):
        # U = (0.9, 1.5, 1.1) with zero exploration
        state = make_state([0.9, 1.5, 1.1], [1.0, 1.0, 1.0], [5, 5, 5], t=9)
        assert ucb_select(state) == [1, 2]

    def test_finite_tie_lowest_index(self):
        state = make_state([1.2, 0.3, 1.2], [1.0, 1.0, 1.0], [5, 5, 5], t=9, plays=1)
        assert ucb_select(state) == [0]

    def test_sentinel_ranks_above_finite(self):
        state = make_state([9.0, 0.1, 0.2], [1.0, 1.0, 1.0], [5, 1, 5], t=9, plays=1,
                           exploration=[0.0, math.inf, 0.0])
        assert ucb_select(state) == [1]


class TestUpdate:
    def test_incremental_mean(self):
        state = make_state([0.5, 0.4], [0.6, 0.6], [1, 1], t=2, plays=1)
        ucb_update(state, (0,), [1.0], [0.5], 3)
        assert state.mean_reward[0] == pytest.approx(0.75)
        assert state.mean_cost[0] == pytest.approx(0.55)
        assert state.pull_counts[0] == 2
        # semi-bandit feedback: the unplayed arm is untouched
        assert state.mean_reward[1] == 0.4
        assert state.pull_counts[1] == 1
        assert state.t == 3

    def test_optimal_round_does_not_count(self):
        state = make_state([0.5, 0.4], [0.6, 0.6], [1, 1], t=2, plays=1, oracle=(0,))
        ucb_update(state, (0,), [1.0], [0.5], 3)
        assert sum(state.suboptimal_counters) == 0

    def test_suboptimal_round_increments_smallest(self):
        state = make_state([0.5, 0.4, 0.3], [0.6, 0.6, 0.6], [1, 1, 1], t=2,
                           plays=2, oracle=(0, 1))
        state.suboptimal_counters[:] = [0, 5, 3]
        ucb_update(state, (1, 2), [1.0, 0.0], [0.5, 0.5], 3)
        assert state.suboptimal_counters == [0, 5, 4]

    def test_counter_ties_go_to_the_lowest_index(self):
        state = make_state([0.5, 0.4, 0.3], [0.6, 0.6, 0.6], [1, 1, 1], t=2,
                           plays=2, oracle=(1,))
        state.suboptimal_counters[:] = [2, 0, 2]
        ucb_update(state, (2, 0), [1.0, 0.0], [0.5, 0.5], 3)
        assert state.suboptimal_counters == [3, 0, 2]


class TestEpisode:
    def test_hand_simulated_degenerate_episode(self):
        # single arm, r = 1 and c = 0.5 always, B = 2: four full rounds
        # (including the init round), then the fifth draw terminates
        cfg = BanditConfig(n_arms=1, plays=1, budget=2.0, c_min=0.5)
        env = StochasticEnv(mean_rewards=[1.0], mean_costs=[0.5], c_min=0.5)
        trace = ucb_run_episode(cfg, env, episode_rng(0, 1))
        assert trace.gain == pytest.approx(4.0)
        assert trace.stopping_time == 5
        assert trace.budget_spent == pytest.approx(2.0)
        assert len(trace.rounds) == 5
        # the terminal round is recorded but never credited
        assert sum(r.rewards.sum() for r in trace.rounds[:-1]) == pytest.approx(trace.gain)

    def test_budget_below_init_cost_terminates_immediately(self):
        cfg = BanditConfig(n_arms=3, plays=2, budget=1.0, c_min=0.5)
        env = StochasticEnv(mean_rewards=[1.0] * 3, mean_costs=[0.5] * 3, c_min=0.5)
        trace = ucb_run_episode(cfg, env, episode_rng(0, 1))
        assert trace.gain == 0.0
        assert trace.stopping_time == 1
        assert trace.budget_spent == 0.0

    def test_budget_stops_right_after_init(self):
        cfg = BanditConfig(n_arms=2, plays=2, budget=1.2, c_min=0.5)
        env = StochasticEnv(mean_rewards=[1.0, 1.0], mean_costs=[0.5, 0.5], c_min=0.5)
        trace = ucb_run_episode(cfg, env, episode_rng(0, 1))
        assert trace.gain == pytest.approx(2.0)  # init round only
        assert trace.stopping_time == 2

    def test_fixed_seed_bit_identical(self):
        cfg = BanditConfig(n_arms=4, plays=2, budget=40.0, c_min=0.5)
        env = StochasticEnv(mean_rewards=[0.9, 0.8, 0.4, 0.3],
                            mean_costs=[0.5, 0.6, 0.7, 0.8], c_min=0.5)
        t1 = ucb_run_episode(cfg, env, episode_rng(17, 3))
        t2 = ucb_run_episode(cfg, env, episode_rng(17, 3))
        assert t1.gain == t2.gain
        assert t1.stopping_time == t2.stopping_time
        assert all(np.array_equal(a.rewards, b.rewards) for a, b in zip(t1.rounds, t2.rounds))

    def test_budget_safety_randomized(self):
        rng = episode_rng(99, 1)
        for i in range(25):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n + 1))
            c_min = float(rng.uniform(0.3, 0.8))
            budget = float(rng.uniform(n, 30.0))
            mc = rng.uniform(c_min, 1.0, n)
            mr = rng.uniform(0.1, 1.0, n)
            cfg = BanditConfig(n_arms=n, plays=k, budget=budget, c_min=c_min)
            env = StochasticEnv(mean_rewards=mr, mean_costs=mc, c_min=c_min)
            trace = ucb_run_episode(cfg, env, episode_rng(100 + i, 1))
            assert trace.budget_spent <= budget + 1e-9
            if trace.stopping_time > 1:
                assert budget - trace.budget_spent < max(k, n)
            credited = trace.rounds[:-1]
            assert sum(r.costs.sum() for r in credited) == pytest.approx(trace.budget_spent)

    def test_counter_identity(self):
        # the episode's counters sum to its suboptimal rounds, the
        # all-arms init round and the uncredited last round aside
        cfg = BanditConfig(n_arms=3, plays=1, budget=30.0, c_min=0.5)
        env = StochasticEnv(mean_rewards=[0.9, 0.5, 0.2],
                            mean_costs=[0.5, 0.6, 0.9], c_min=0.5)
        trace = ucb_run_episode(cfg, env, episode_rng(7, 1), oracle_arms=(0,))
        suboptimal = sum(r.arms != (0,) for r in trace.rounds[1:-1])
        assert sum(trace.extras["suboptimal_counters"]) == suboptimal > 0

    def test_counters_change_nothing(self):
        # the acceptance suite's ucb instance: the instrumented episode is the
        # plain one, and the generators end in the same state
        cfg = BanditConfig(n_arms=4, plays=2, budget=500.0, c_min=0.5)
        env = StochasticEnv(mean_rewards=[0.9, 0.9, 0.7, 0.6],
                            mean_costs=[0.5, 0.6, 0.7, 0.75], c_min=0.5)
        plain_rng, counted_rng = episode_rng(1007, 1), episode_rng(1007, 1)
        plain = ucb_run_episode(cfg, env, plain_rng)
        counted = ucb_run_episode(cfg, env, counted_rng, oracle_arms=(0, 1))
        assert (counted.gain, counted.stopping_time) == (plain.gain, plain.stopping_time)
        assert counted.budget_spent == plain.budget_spent
        assert [r.arms for r in counted.rounds] == [r.arms for r in plain.rounds]
        assert plain.extras == {} and len(counted.extras["suboptimal_counters"]) == 4
        assert same_state(counted_rng.bit_generator.state, plain_rng.bit_generator.state)

    def test_no_leakage_into_unplayed_arms(self):
        # an arm that is never played keeps its single-observation statistics
        cfg = BanditConfig(n_arms=2, plays=1, budget=20.0, c_min=0.5)
        env = StochasticEnv(mean_rewards=[1.0, 0.2], mean_costs=[0.5, 1.0], c_min=0.5)
        rng = episode_rng(3, 1)
        state, cost, _ = ucb_init(cfg, env, rng)
        frozen_mean = float(state.mean_reward[1])
        for _ in range(10):
            rewards, costs = draw_round(env, [0], rng)
            ucb_update(state, [0], rewards, costs, state.t + 1)
        assert state.mean_reward[1] == frozen_mean
        assert state.pull_counts[1] == 1
