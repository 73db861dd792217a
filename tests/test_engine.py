"""The lockstep round engine against the scalar reference (tests/exp3_reference.py).

Every field of every trace must be equal bit for bit: gain, stopping time and
spend (compared by float.hex), the round totals, the extras (epoch starts,
accumulators, sigma_acc) and, with recording on, every RoundRecord. A row
that coupled to another row, or arithmetic that drifted by one ulp, fails.
"""

import math

import numpy as np
import pytest

from budgetbandits import (
    AdversarialEnv,
    BanditConfig,
    StochasticEnv,
    episode_rng,
    exp31mb_run,
    exp3mb_run_episode,
    exp3pm_run,
    exp3pmb_run,
)
from budgetbandits.exp3 import Variant, play_lockstep
from exp3_reference import reference_episode

C_MIN = 0.5
POLICIES = ("exp3_mb", "exp3_1_mb", "exp3_pm", "exp3_pmb")
ENVIRONMENTS = ("adversarial", "bernoulli_scaled", "beta_scaled")
SHAPES = sorted({(n, k) for n in (3, 8, 9, 32) for k in (1, 2, n - 1, n)})
ROUNDS = 25  # about this many rounds per episode


def bits(a):
    a = np.asarray(a, dtype=np.float64)
    return a.shape, a.tobytes()


def assert_same_trace(got, want):
    assert got.gain.hex() == want.gain.hex()
    assert got.stopping_time == want.stopping_time
    assert got.budget_spent.hex() == want.budget_spent.hex()
    assert bits(got.round_costs) == bits(want.round_costs)
    assert bits(got.round_rewards) == bits(want.round_rewards)
    assert sorted(got.extras) == sorted(want.extras)
    for key, value in want.extras.items():
        if isinstance(value, np.ndarray):
            assert bits(got.extras[key]) == bits(value), key
        else:
            assert got.extras[key] == value, key
    assert len(got.rounds) == len(want.rounds)
    for g, w in zip(got.rounds, want.rounds):
        assert (g.t, g.arms) == (w.t, w.arms)
        assert all(type(a) is int for a in g.arms)
        assert bits(g.rewards) == bits(w.rewards)
        assert bits(g.costs) == bits(w.costs)
        assert bits(g.probabilities) == bits(w.probabilities)
        assert float(g.budget_remaining).hex() == float(w.budget_remaining).hex()


def make_case(policy, kind, n, k, seed, skew=False):
    rng = episode_rng(seed, 0)
    budget = ROUNDS * k * 0.75
    t_max = int(math.ceil(budget / (k * C_MIN))) + 1
    horizon = ROUNDS if policy == "exp3_pm" else None
    cfg = BanditConfig(n_arms=n, plays=k, budget=budget, c_min=C_MIN, horizon=horizon)
    if kind == "adversarial":
        rewards = rng.random((t_max, n))
        costs = C_MIN + (1.0 - C_MIN) * rng.random((t_max, n))
        if policy == "exp3_1_mb":
            # rewards above costs make the accumulators grow and epochs turn over
            rewards = 0.7 + 0.3 * rewards
            costs = C_MIN + 0.2 * rng.random((t_max, n))
        if skew:
            rewards[:, 0], costs[:, 0] = 1.0, C_MIN
            rewards[:, 1:] *= 0.2
        env = AdversarialEnv(rewards=rewards, costs=costs)
    else:
        env = StochasticEnv(mean_rewards=rng.uniform(0.05, 1.0, n),
                            mean_costs=rng.uniform(C_MIN, 1.0, n), c_min=C_MIN, family=kind)
    return cfg, env


def public_episode(policy, cfg, env, rng, gamma, record):
    if policy == "exp3_mb":
        return exp3mb_run_episode(cfg, env, rng, gamma=gamma, record=record)
    if policy == "exp3_1_mb":
        return exp31mb_run(cfg, env, rng, record=record)
    if policy == "exp3_pm":
        return exp3pm_run(cfg, env, rng, record=record)
    return exp3pmb_run(cfg, env, rng, record=record)


def cases():
    for policy in POLICIES:
        for kind in ENVIRONMENTS:
            for n, k in SHAPES:
                if policy == "exp3_1_mb" and k == n:
                    continue  # the epoch schedule needs K < N
                yield pytest.param(policy, kind, n, k, id=f"{policy}-{kind}-N{n}-K{k}")


@pytest.mark.parametrize("policy,kind,n,k", cases())
def test_one_row_equals_reference(policy, kind, n, k):
    seed = 1000 * n + 10 * k + POLICIES.index(policy)
    cfg, env = make_case(policy, kind, n, k, seed)
    gamma = 0.3 if policy == "exp3_mb" else None
    want = reference_episode(policy, cfg, env, episode_rng(seed, 1), gamma=gamma)
    got = public_episode(policy, cfg, env, episode_rng(seed, 1), gamma, record=True)
    assert_same_trace(got, want)


@pytest.mark.parametrize("policy,kind,n,k", cases())
def test_rows_in_one_pass_equal_reference(policy, kind, n, k):
    seed = 7 + 1000 * n + 10 * k + POLICIES.index(policy)
    cfg, env = make_case(policy, kind, n, k, seed)
    gamma = 0.05 if policy == "exp3_mb" else None
    rows = 4
    want = [reference_episode(policy, cfg, env, episode_rng(seed, i + 1), gamma=gamma)
            for i in range(rows)]
    got = play_lockstep(Variant(policy), cfg, env,
                        [episode_rng(seed, i + 1) for i in range(rows)], gamma=gamma,
                        record=True)
    assert len(got) == rows
    for g, w in zip(got, want):
        assert_same_trace(g, w)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("n", (3, 9))
def test_capping_heavy(policy, n):
    """Small gamma, K = N - 1 and one arm far ahead: most rounds cap some row."""
    k = n - 1
    seed = 31 + n
    cfg, env = make_case(policy, "adversarial", n, k, seed, skew=True)
    gamma = 0.02 if policy == "exp3_mb" else None
    rows = 5
    want = [reference_episode(policy, cfg, env, episode_rng(seed, i + 1), gamma=gamma)
            for i in range(rows)]
    got = play_lockstep(Variant(policy), cfg, env,
                        [episode_rng(seed, i + 1) for i in range(rows)], gamma=gamma,
                        record=True)
    for g, w in zip(got, want):
        assert_same_trace(g, w)


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind", ENVIRONMENTS)
def test_rows_in_one_pass_equal_one_row_passes(policy, kind):
    seed = 71
    cfg, env = make_case(policy, kind, 8, 2, seed)
    gamma = 0.3 if policy == "exp3_mb" else None
    rngs = [episode_rng(seed, i + 1) for i in range(6)]
    together = play_lockstep(Variant(policy), cfg, env, rngs, gamma=gamma)
    for i, trace in enumerate(together):
        alone = play_lockstep(Variant(policy), cfg, env, [episode_rng(seed, i + 1)],
                              gamma=gamma)
        assert_same_trace(trace, alone[0])
        assert trace.rounds == []


def test_epoch_test_fires_repeatedly_at_round_one():
    # on N = 2, K = 1 with c_min = 0.05 the thresholds g_r - N(1 - c)/(K gamma_r)
    # of epochs 0 and 1 are negative, so the test at t = 1, with every
    # accumulator zero, fires twice before the first round is played
    c_min, budget = 0.05, 6.0
    t_max = int(math.ceil(budget / c_min)) + 1
    cfg = BanditConfig(n_arms=2, plays=1, budget=budget, c_min=c_min)
    rng = episode_rng(5, 0)
    env = AdversarialEnv(rewards=0.7 + 0.3 * rng.random((t_max, 2)),
                         costs=c_min + 0.2 * rng.random((t_max, 2)))
    got = play_lockstep(Variant.ONE_MB, cfg, env, [episode_rng(5, i + 1) for i in range(3)],
                        record=True)
    for i, trace in enumerate(got):
        want = reference_episode("exp3_1_mb", cfg, env, episode_rng(5, i + 1))
        assert_same_trace(trace, want)
    starts = got[0].extras["epoch_starts"]
    assert [t for _, t in starts].count(1) >= 2


class TestNumpyHazards:
    """The row-wise array stages give what the 1-d stages gave."""

    @pytest.mark.parametrize("n", (3, 8, 9, 32))
    @pytest.mark.parametrize("rows", (1, 2, 4, 5, 200))
    def test_exp_and_row_sums(self, n, rows):
        rng = episode_rng(n, rows)
        lw = rng.normal(0.0, 6.0, (rows, n))
        w = np.exp(lw - lw.max(axis=1, keepdims=True))
        totals = w.sum(axis=1)
        for r in range(rows):
            one = np.exp(lw[r] - lw[r].max())
            assert bits(w[r]) == bits(one)
            assert totals[r].hex() == float(one.sum()).hex()

    @pytest.mark.parametrize("n", (3, 8, 9, 32))
    def test_partitioned_top_k_sums(self, n):
        rng = episode_rng(n, 3)
        diff = rng.normal(0.0, 5.0, (7, n))
        for k in sorted({1, 2, n - 1}):
            top = np.partition(diff, n - k, axis=1)[:, n - k:].sum(axis=1)
            for r in range(7):
                one = np.partition(diff[r], n - k)[n - k:]
                assert top[r].hex() == float(one.sum()).hex()

    def test_zero_folds_keep_positive_zero(self):
        # unplayed arms add exactly +0.0, which leaves every value but -0.0
        # alone; accumulators and weights start at +0.0 and never reach -0.0
        acc = np.array([0.0, 1.5, -2.0])
        step = 0.3 * (np.zeros(3) - np.zeros(3))
        assert bits(acc + step) == bits(acc)
        assert math.copysign(1.0, (acc + step)[0]) == 1.0
        assert math.copysign(1.0, 0.0 + -0.0) == 1.0
