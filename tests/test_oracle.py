"""The exact adversarial oracle's block evaluation against naive play.

The oracle evaluates subsets a block at a time; its block size comes from the
private cell budget ``harness._BLOCK_CELLS``, which these tests shrink so that
small instances cross block boundaries.
"""

import math
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from budgetbandits import (
    AdversarialEnv,
    BanditConfig,
    ConfigError,
    default_t_max,
    episode_rng,
    exp3mb_run_episode,
    oracle_gain_adversarial,
    simulate_fixed_subset,
)
from budgetbandits import harness


def naive_play(env, subset, budget):
    """(gain, stopping_time) of one subset, one round and one arm at a time."""
    left, gain = budget, 0.0
    for t in range(env.t_max):
        cost = 0.0
        reward = 0.0
        for j in subset:
            cost += env.costs[t, j]
            reward += env.rewards[t, j]
        if cost > left:
            return gain, t + 1
        left -= cost
        gain += reward
    raise AssertionError("sequence exhausted")


def naive_oracle(env, plays, budget):
    best_set, best_gain = None, -math.inf
    for subset in combinations(range(env.n_arms), plays):
        gain, _ = naive_play(env, subset, budget)
        if gain > best_gain:
            best_set, best_gain = subset, gain
    return best_set, best_gain


def random_env(rng, n, plays, budget):
    t_max = default_t_max(budget, plays, 0.5)
    return AdversarialEnv(rewards=rng.random((t_max, n)),
                          costs=0.5 + 0.5 * rng.random((t_max, n)))


def column_env(rewards_by_arm, costs_by_arm, t_max):
    return AdversarialEnv(
        rewards=np.tile(np.asarray(rewards_by_arm, dtype=float), (t_max, 1)),
        costs=np.tile(np.asarray(costs_by_arm, dtype=float), (t_max, 1)),
    )


def cells_for_block(block, env):
    """A cell budget that gives blocks of ``block`` subsets on ``env``."""
    return block * (env.t_max + 1)


class TestBlocks:
    def test_many_blocks_match_naive(self, monkeypatch):
        rng = episode_rng(301, 1)
        for _ in range(10):
            budget = float(rng.uniform(4.0, 10.0))
            env = random_env(rng, 7, 3, budget)
            cfg = BanditConfig(n_arms=7, plays=3, budget=budget, c_min=0.5)
            # C(7, 3) = 35 subsets in 12 blocks of at most 3
            monkeypatch.setattr(harness, "_BLOCK_CELLS", cells_for_block(3, env))
            assert oracle_gain_adversarial(env, cfg) == naive_oracle(env, 3, cfg.budget)

    def test_winner_in_last_block(self, monkeypatch):
        # gain rises with the arm index, so the last subset, (4, 5), wins; C(6, 2) = 15
        # subsets in blocks of 4 put it alone with (3, 4) and (3, 5) in the fourth
        env = column_env([0.1, 0.2, 0.3, 0.4, 0.5, 0.6], [0.5] * 6, t_max=12)
        cfg = BanditConfig(n_arms=6, plays=2, budget=10.0, c_min=0.5)
        monkeypatch.setattr(harness, "_BLOCK_CELLS", cells_for_block(4, env))
        assert oracle_gain_adversarial(env, cfg) == naive_oracle(env, 2, 10.0)
        assert oracle_gain_adversarial(env, cfg)[0] == (4, 5)

    def test_tie_across_a_block_boundary_goes_to_the_first(self, monkeypatch):
        # arms 1 and 2 tie for best; blocks of 2 put them in different blocks
        env = column_env([0.1, 0.8, 0.8, 0.2], [0.5] * 4, t_max=12)
        cfg = BanditConfig(n_arms=4, plays=1, budget=5.0, c_min=0.5)
        monkeypatch.setattr(harness, "_BLOCK_CELLS", cells_for_block(2, env))
        a_star, g_max = oracle_gain_adversarial(env, cfg)
        assert a_star == (1,)
        assert g_max == naive_play(env, (2,), 5.0)[0]

    def test_exhaustion_raised_from_a_later_block(self, monkeypatch):
        # arms 0-2 stop at round 4; the cheap arm 3 outlasts the 6 rounds, and
        # blocks of 2 put it in the second block
        env = column_env([0.5] * 4, [1.0, 1.0, 1.0, 0.1], t_max=6)
        cfg = BanditConfig(n_arms=4, plays=1, budget=3.0, c_min=0.1)
        monkeypatch.setattr(harness, "_BLOCK_CELLS", cells_for_block(2, env))
        assert simulate_fixed_subset(env, (1,), 3.0) == 1.5
        with pytest.raises(ConfigError, match="exhausted"):
            oracle_gain_adversarial(env, cfg)

    def test_rows_beyond_the_cell_budget_give_blocks_of_one(self, monkeypatch):
        rng = episode_rng(302, 1)
        for _ in range(5):
            env = random_env(rng, 5, 2, budget=8.0)
            cfg = BanditConfig(n_arms=5, plays=2, budget=8.0, c_min=0.5)
            default = oracle_gain_adversarial(env, cfg)
            monkeypatch.setattr(harness, "_BLOCK_CELLS", env.t_max // 2)
            assert oracle_gain_adversarial(env, cfg) == default == naive_oracle(env, 2, 8.0)
            monkeypatch.undo()


class TestSimulateFixedSubset:
    def test_matches_naive_play_in_any_arm_order(self):
        rng = episode_rng(303, 1)
        env = random_env(rng, 6, 3, budget=9.0)
        assert simulate_fixed_subset(env, (4, 0, 2), 9.0) == naive_play(env, (0, 2, 4), 9.0)[0]

    def test_first_round_overdraws(self):
        env = column_env([1.0, 1.0], [1.0, 1.0], t_max=3)
        assert simulate_fixed_subset(env, (0, 1), 1.5) == 0.0

    def test_arm_out_of_range(self):
        env = column_env([1.0, 1.0], [1.0, 1.0], t_max=3)
        with pytest.raises(IndexError):
            simulate_fixed_subset(env, (0, 2), 1.5)

    def test_repeated_arm(self):
        # a repeated arm, or a negative alias of one, is not a subset: counted
        # twice, (1, 1) would gain 7.2 and (3, -1) 2.4
        env = column_env([0.1, 0.9, 0.2, 0.3], [0.5] * 4, t_max=9)
        with pytest.raises(ValueError, match="distinct"):
            simulate_fixed_subset(env, [1, 1], 4.0)
        with pytest.raises(IndexError):
            simulate_fixed_subset(env, [3, -1], 4.0)
        assert simulate_fixed_subset(env, [1, 3], 4.0) == naive_play(env, (1, 3), 4.0)[0]

    def test_no_arms(self):
        env = column_env([1.0, 1.0], [1.0, 1.0], t_max=3)
        with pytest.raises(ConfigError):
            simulate_fixed_subset(env, (), 1.5)


@st.composite
def oracle_instances(draw):
    n = draw(st.integers(1, 6))
    plays = draw(st.integers(1, n))
    budget = draw(st.floats(0.5, 10.0))
    t_max = default_t_max(budget, plays, 0.5)
    if draw(st.booleans()):  # a coarse grid makes ties common
        reward = st.sampled_from([0.0, 0.25, 0.5, 1.0])
        cost = st.sampled_from([0.5, 0.75, 1.0])
    else:
        reward = st.floats(0.0, 1.0)
        cost = st.floats(0.5, 1.0)
    env = AdversarialEnv(rewards=draw(arrays(np.float64, (t_max, n), elements=reward)),
                         costs=draw(arrays(np.float64, (t_max, n), elements=cost)))
    cells = draw(st.integers(1, 4 * (t_max + 1)))
    return env, BanditConfig(n_arms=n, plays=plays, budget=budget, c_min=0.5), cells


@settings(max_examples=150, deadline=None)
@given(oracle_instances())
def test_exact_oracle_is_the_first_best_simulated_subset(instance):
    env, cfg, cells = instance
    with mock.patch.object(harness, "_BLOCK_CELLS", cells):
        a_star, g_max = oracle_gain_adversarial(env, cfg)
    gains = {s: simulate_fixed_subset(env, s, cfg.budget)
             for s in combinations(range(cfg.n_arms), cfg.plays)}
    assert all(g_max >= g for g in gains.values())
    assert g_max == max(gains.values())
    assert a_star == min(s for s, g in gains.items() if g == g_max)


def test_policy_playing_every_arm_matches_the_oracle_exactly():
    # with K = N the only subset is all arms, so exp3_mb's gain and stopping
    # time are the oracle's; at nine arms numpy's pairwise sum would round
    # the round totals differently
    for seed in range(20):
        rng = episode_rng(seed, 1)
        env = random_env(rng, 9, 9, budget=30.0)
        cfg = BanditConfig(n_arms=9, plays=9, budget=30.0, c_min=0.5)
        trace = exp3mb_run_episode(cfg, env, episode_rng(seed, 2), gamma=0.3)
        _, g_max = oracle_gain_adversarial(env, cfg)
        gain, stopping_time = naive_play(env, range(9), 30.0)
        assert trace.gain == g_max == gain
        assert trace.stopping_time == stopping_time
