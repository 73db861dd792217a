import math

import numpy as np
import pytest

from budgetbandits import (
    AdversarialEnv,
    BanditConfig,
    ConfigError,
    PolicySpec,
    RunSpec,
    WeightVector,
    compute_cap,
    compute_probabilities,
    epoch_threshold,
    episode_rng,
    estimate,
    exp31mb_run,
    exp3mb_run_episode,
    exp3pm_parameters,
    exp3pm_run,
    exp3pmb_parameters,
    exp3pmb_run,
    tune_gamma_mb,
)
from budgetbandits import exp3, harness
from budgetbandits.exp3 import Exp3State, Variant
from itertools import combinations

E = math.e


def constant_env(t_max, n, reward, cost):
    return AdversarialEnv(rewards=np.full((t_max, n), reward),
                          costs=np.full((t_max, n), cost))


def one_row_state(n, plays, gamma, log_weights=None):
    """The engine's state of one budgeted episode, as its single row."""
    lw = np.zeros((1, n)) if log_weights is None else np.array([log_weights], dtype=float)
    return Exp3State(lw, np.zeros((1, n)), np.zeros((1, n)), np.zeros((1, n)),
                     np.array([[gamma]]), Variant.MB, n, plays)


def update(state, p, arms, rewards, costs, capped=None):
    """One round folded into a one-row state: the engine's update stage."""
    mask = None
    if capped is not None:
        mask = np.zeros((1, state.n_arms), dtype=bool)
        mask[0, capped] = True
    exp3._update(state, np.array([p], dtype=float), mask, [arms], [rewards], [costs])


def epoch_done(gain, loss, g_r, gamma_r, n, k, c_min):
    """The doubling trick's epoch test, as the engine runs it."""
    total = float(exp3._best_subset_totals(gain, loss, k))
    return total > exp3._epoch_target(g_r, gamma_r, n, k, c_min)


class TestEstimate:
    def test_played_arm_definition(self):
        rhat, chat = estimate([0.5, 0.5], (0,), [0.7], [0.6])
        assert rhat[0] == pytest.approx(1.4)
        assert chat[0] == pytest.approx(1.2)

    def test_unplayed_arm_is_zero(self):
        # only the played arm's accumulators and weight move
        state = one_row_state(2, 1, 0.5)
        update(state, [0.5, 0.5], (0,), [0.7], [0.6])
        assert state.gain_acc[0, 1] == 0.0 and state.loss_acc[0, 1] == 0.0
        assert state.log_weights[0, 1] == 0.0
        assert state.gain_acc[0, 0] == pytest.approx(1.4)

    def test_monte_carlo_unbiasedness(self):
        # inclusion with p = 0.25, r = 0.6: the mean estimate converges to r
        rng = episode_rng(8, 1)
        p = [0.25, 0.75]
        n = 10 ** 5
        included = rng.random(n) < 0.25
        total_r = 0.0
        total_c = 0.0
        for inc in included:
            if inc:  # arm 0's estimate is 0 in a round that plays arm 1
                rhat, chat = estimate(p, (0,), [0.6], [0.5])
                total_r += rhat[0]
                total_c += chat[0]
        assert abs(total_r / n - 0.6) < 0.01
        assert abs(total_c / n - 0.5) < 0.012


class TestWeightUpdate:
    # played arms observed with p = 1 have estimates equal to their observations
    def test_zero_estimates_leave_weights(self):
        state = one_row_state(3, 2, 0.4)
        update(state, [1.0] * 3, (0, 1), [0.0, 0.0], [0.0, 0.0])
        assert np.array_equal(state.log_weights, np.zeros((1, 3)))

    def test_cancellation(self):
        state = one_row_state(3, 2, 0.4)
        update(state, [1.0] * 3, (0, 1), [1.7, 0.0], [1.7, 0.0])
        assert np.array_equal(state.log_weights, np.zeros((1, 3)))

    def test_hand_increment(self):
        # K=1, N=2, gamma=0.5, rhat = 1 / 0.5 = 2, chat=0 -> log step (0.5/2)*2 = 0.5
        state = one_row_state(2, 1, 0.5)
        update(state, [0.5, 0.5], (0,), [1.0], [0.0])
        assert state.log_weights[0, 0] == pytest.approx(0.5)
        assert state.log_weights[0, 1] == 0.0

    def test_capped_arm_unchanged(self):
        state = one_row_state(3, 2, 0.4, log_weights=[2.0, 0.0, 0.0])
        update(state, [1.0] * 3, (0, 1), [3.0, 1.0], [0.0, 0.0], capped=[0])
        assert state.log_weights[0, 0] == 2.0
        assert state.log_weights[0, 1] > 0.0


class TestRound:
    def test_gamma_one_is_uniform(self):
        # one round of the engine's stages on a one-row state
        env = constant_env(50, 4, 0.5, 0.5)
        state = one_row_state(4, 2, 1.0, log_weights=[5.0, -3.0, 0.0, 1.0])  # must not matter
        ratio = np.array([exp3._row_ratio(1.0, 2, 4)])
        p, capped, arms, _, _ = exp3._observe(state, ratio, env, 1, [episode_rng(0, 1)])
        assert capped is None and len(arms[0]) == 2
        assert np.allclose(p, 0.5)

    def test_cost_floor_forces_termination(self):
        # the first round costs 1.0 > B = 0.9: it is neither credited nor charged
        cfg = BanditConfig(n_arms=4, plays=2, budget=0.9, c_min=0.5)
        env = constant_env(50, 4, 0.5, 0.5)
        trace = exp3mb_run_episode(cfg, env, episode_rng(0, 1), gamma=0.3, record=True)
        assert trace.stopping_time == 1
        assert trace.gain == 0.0 and trace.budget_spent == 0.0
        assert len(trace.rounds) == 1
        assert trace.rounds[0].budget_remaining == 0.9
        # and it folds nothing into the state: the accumulators stay at zero
        trace = exp31mb_run(cfg, env, episode_rng(0, 1))
        assert trace.stopping_time == 1
        assert not trace.extras["gain_acc"].any() and not trace.extras["loss_acc"].any()

    def test_round_reproducible(self):
        cfg = BanditConfig(n_arms=2, plays=1, budget=10.0, c_min=0.5)
        env = constant_env(30, 2, 1.0, 0.5)
        t1 = exp3mb_run_episode(cfg, env, episode_rng(4, 9), gamma=0.3, record=True)
        t2 = exp3mb_run_episode(cfg, env, episode_rng(4, 9), gamma=0.3, record=True)
        assert [r.arms for r in t1.rounds] == [r.arms for r in t2.rounds]
        for r1, r2 in zip(t1.rounds, t2.rounds):
            assert np.array_equal(r1.probabilities, r2.probabilities)
        assert t1.gain == t2.gain

    def test_capped_arm_probability_one_and_stable_weight(self):
        # one round of the engine's stages on a one-row state
        cfg = BanditConfig(n_arms=3, plays=2, budget=50.0, c_min=0.5)
        env = constant_env(120, 3, 1.0, 0.5)
        state = one_row_state(3, 2, 0.1, log_weights=[math.log(10.0), 0.0, 0.0])
        before = state.log_weights.copy()
        ratio = np.array([exp3._row_ratio(0.1, cfg.plays, cfg.n_arms)])
        p, capped, arms, rewards, costs = exp3._observe(state, ratio, env, 1, [episode_rng(1, 1)])
        exp3._update(state, p, capped, arms, rewards, costs)
        assert p[0, 0] == pytest.approx(1.0, abs=1e-9)
        assert capped[0, 0]
        assert state.log_weights[0, 0] == before[0, 0]


class TestEpisodes:
    def test_budget_safety_and_terminal_round_not_credited(self):
        rng = episode_rng(12, 1)
        for i in range(15):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n))
            c_min = 0.5
            budget = float(rng.uniform(5.0, 25.0))
            t_max = int(np.ceil(budget / (k * c_min))) + 1
            env = AdversarialEnv(rewards=rng.random((t_max, n)),
                                 costs=c_min + (1 - c_min) * rng.random((t_max, n)))
            cfg = BanditConfig(n_arms=n, plays=k, budget=budget, c_min=c_min)
            trace = exp3mb_run_episode(cfg, env, episode_rng(50 + i, 1), gamma=0.2)
            assert trace.budget_spent <= budget + 1e-9
            assert budget - trace.budget_spent < k
            credited = trace.rounds[:-1]
            assert sum(r.rewards.sum() for r in credited) == pytest.approx(trace.gain)
            assert sum(r.costs.sum() for r in credited) == pytest.approx(trace.budget_spent)

    def test_gain_bound_tunes_gamma(self):
        # a run spec's g becomes gamma in harness.prepare; replication 0 of
        # base seed 6 draws from episode_rng(6, 1)
        cfg = BanditConfig(n_arms=4, plays=2, budget=12.0, c_min=0.5)
        env = constant_env(14, 4, 0.8, 0.5)
        gamma = tune_gamma_mb(20.0, 12.0, 4, 2, 0.5)
        spec = RunSpec(cfg, PolicySpec("exp3_mb", g=20.0), env, base_seed=6)
        prep = harness.prepare(spec)
        assert prep.gamma == gamma
        via_bound = harness._episodes(spec, prep, record=True)[0]
        via_gamma = exp3mb_run_episode(cfg, env, episode_rng(6, 1), gamma=gamma)
        assert via_bound.gain == via_gamma.gain
        assert [r.arms for r in via_bound.rounds] == [r.arms for r in via_gamma.rounds]

    def test_episode_requires_gamma_or_bound(self):
        cfg = BanditConfig(n_arms=4, plays=2, budget=12.0, c_min=0.5)
        env = constant_env(14, 4, 0.8, 0.5)
        with pytest.raises(ConfigError, match="gamma must lie in"):
            exp3mb_run_episode(cfg, env, episode_rng(6, 1))
        with pytest.raises(ConfigError, match="exactly one of gamma or g"):
            PolicySpec("exp3_mb")

    def test_probability_floor_every_round(self):
        cfg = BanditConfig(n_arms=4, plays=2, budget=30.0, c_min=0.5)
        rng = episode_rng(13, 1)
        env = AdversarialEnv(rewards=rng.random((130, 4)),
                             costs=0.5 + 0.5 * rng.random((130, 4)))
        gamma = 0.25
        trace = exp3mb_run_episode(cfg, env, episode_rng(14, 1), gamma=gamma)
        floor = cfg.plays * gamma / cfg.n_arms
        for row in trace.rounds:
            assert np.all(row.probabilities >= floor - 1e-12)
            assert row.probabilities.sum() == pytest.approx(cfg.plays, abs=1e-9)


class TestTuneGamma:
    def test_hand_value(self):
        assert tune_gamma_mb(200.0, 100.0, 10, 2, 0.5) == pytest.approx(0.15302413013876611, rel=1e-12)

    def test_tiny_gain_bound_clamps_to_one(self):
        # as g -> 0 the inner expression tends to N log(N/K) / ((e-1) B / c_min),
        # so a small budget pushes it past the clamp
        assert tune_gamma_mb(1e-6, 1.0, 10, 2, 0.5) == 1.0

    def test_degenerate_k_equals_n(self):
        with pytest.raises(ConfigError, match="degenerate"):
            tune_gamma_mb(100.0, 50.0, 4, 4, 0.5)

    def test_nonpositive_gain_bound(self):
        with pytest.raises(ValueError):
            tune_gamma_mb(0.0, 100.0, 10, 2, 0.5)


class TestEpochSchedule:
    def test_hand_value_epoch_zero(self):
        g0, gamma0 = epoch_threshold(0, 4, 2, 0.5)
        assert g0 == pytest.approx(2.0399567794716281, rel=1e-12)
        assert gamma0 == 1.0

    def test_quadrupling_and_halving(self):
        g0, _ = epoch_threshold(0, 4, 2, 0.5)
        g1, gamma1 = epoch_threshold(1, 4, 2, 0.5)
        g3, gamma3 = epoch_threshold(3, 4, 2, 0.5)
        assert g1 / g0 == pytest.approx(4.0)
        assert gamma1 == 0.5
        assert gamma3 == 0.125

    def test_degenerate(self):
        with pytest.raises(ConfigError):
            epoch_threshold(0, 3, 3, 0.5)


class TestEpochDone:
    def test_fresh_accumulators_not_done(self):
        g0, gamma0 = epoch_threshold(0, 8, 2, 0.5)
        assert not epoch_done(np.zeros(8), np.zeros(8), g0, gamma0, 8, 2, 0.5)

    def test_hand_threshold(self):
        gain = np.array([5.0, 3.0, 1.0])
        # top-2 sum = 8 against threshold g_r - N(1-c)/(K gamma) = 7.9
        g_r = 7.9 + 3 * 0.5 / (2 * 1.0)
        assert epoch_done(gain, np.zeros(3), g_r, 1.0, 3, 2, 0.5)
        assert not epoch_done(gain - 0.1, np.zeros(3), g_r, 1.0, 3, 2, 0.5)

    def test_matches_subset_enumeration(self):
        rng = episode_rng(21, 1)
        for _ in range(50):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, n))
            gain = rng.normal(0, 5, n)
            loss = rng.normal(0, 5, n)
            g_r, gamma_r = epoch_threshold(int(rng.integers(0, 3)), n, k, 0.5)
            brute = max(sum((gain - loss)[list(a)]) for a in combinations(range(n), k))
            expected = brute > g_r - n * 0.5 / (k * gamma_r)
            assert epoch_done(gain, loss, g_r, gamma_r, n, k, 0.5) == expected


class TestDoubling:
    def test_tiny_budget_single_epoch(self):
        cfg = BanditConfig(n_arms=4, plays=2, budget=3.0, c_min=0.5)
        env = constant_env(10, 4, 0.5, 0.5)
        trace = exp31mb_run(cfg, env, episode_rng(2, 1))
        assert trace.extras["epochs_started"] == 1
        assert trace.extras["epoch_starts"] == [(0, 1)]

    def test_reproducible_epoch_schedule(self):
        cfg = BanditConfig(n_arms=4, plays=2, budget=60.0, c_min=0.5)
        rng = episode_rng(23, 1)
        env = AdversarialEnv(rewards=0.6 + 0.4 * rng.random((70, 4)),
                             costs=0.5 + 0.1 * rng.random((70, 4)))
        t1 = exp31mb_run(cfg, env, episode_rng(3, 7))
        t2 = exp31mb_run(cfg, env, episode_rng(3, 7))
        assert t1.extras["epoch_starts"] == t2.extras["epoch_starts"]
        assert t1.gain == t2.gain

    def test_accumulators_carry_across_epochs(self):
        # rewards strictly above costs drive the accumulators up and trigger
        # at least one restart on a moderate budget
        cfg = BanditConfig(n_arms=4, plays=2, budget=80.0, c_min=0.5)
        rng = episode_rng(24, 1)
        env = AdversarialEnv(rewards=0.8 + 0.2 * rng.random((90, 4)),
                             costs=0.5 + 0.05 * rng.random((90, 4)))
        trace = exp31mb_run(cfg, env, episode_rng(25, 1))
        assert trace.extras["epochs_started"] >= 2
        diff = trace.extras["gain_acc"] - trace.extras["loss_acc"]
        assert np.all(trace.extras["gain_acc"] >= 0.0)
        assert diff.max() > 0.0


class TestHighProbParameters:
    def test_pm_hand_values(self):
        cfg = BanditConfig(n_arms=10, plays=2, budget=1.0, c_min=0.5,
                           confidence=0.1, horizon=1000)
        params = exp3pm_parameters(cfg)
        assert params.alpha == pytest.approx(6.3980345495841081, rel=1e-12)
        assert params.gamma == pytest.approx(0.12035340133085938, rel=1e-12)
        assert params.sigma_init == pytest.approx(2 * math.sqrt(10 * 1000))
        assert params.conf_scale == pytest.approx(1 / math.sqrt(10 * 1000))
        expected_w = params.alpha * params.gamma * 4 * math.sqrt(1000 / 10) / 3
        assert params.log_w_init == pytest.approx(expected_w, rel=1e-12)

    def test_pm_gamma_clamp_small_horizon(self):
        cfg = BanditConfig(n_arms=10, plays=2, budget=1.0, c_min=0.5, horizon=2)
        assert exp3pm_parameters(cfg).gamma == 0.6

    def test_pm_k_equals_n_degenerates(self):
        cfg = BanditConfig(n_arms=3, plays=3, budget=1.0, c_min=0.5, horizon=100)
        params = exp3pm_parameters(cfg)
        assert params.alpha == 0.0
        assert params.gamma == 1.0

    def test_pm_requires_horizon(self):
        cfg = BanditConfig(n_arms=3, plays=2, budget=1.0, c_min=0.5)
        with pytest.raises(ConfigError):
            exp3pm_parameters(cfg)

    def test_pmb_hand_values(self):
        cfg = BanditConfig(n_arms=10, plays=2, budget=100.0, c_min=0.5, confidence=0.1)
        params = exp3pmb_parameters(cfg)
        assert params.alpha == pytest.approx(14.017391386018485, rel=1e-12)
        assert params.gamma == pytest.approx(0.53823677339823044, rel=1e-12)
        # G_max = B / c_min makes G_max - B = 100 here
        assert 100.0 / 0.5 - 100.0 == pytest.approx(100.0)
        assert params.sigma_init == pytest.approx(2 * math.sqrt(10 * 100 / (2 * 0.5)))
        assert params.conf_scale == pytest.approx(math.sqrt(2 * 0.5) / math.sqrt(10 * 100))

    def test_pmb_cmin_near_one_hits_first_branch(self):
        cfg = BanditConfig(n_arms=10, plays=2, budget=100.0, c_min=1.0 - 1e-12)
        assert exp3pmb_parameters(cfg).gamma == pytest.approx(1.0, abs=1e-9)


class TestHighProbEpisodes:
    def test_pm_plays_exactly_horizon_rounds(self):
        cfg = BanditConfig(n_arms=4, plays=2, budget=1.0, c_min=0.5,
                           confidence=0.1, horizon=25)
        rng = episode_rng(31, 1)
        env = AdversarialEnv(rewards=rng.random((25, 4)),
                             costs=0.5 + 0.5 * rng.random((25, 4)))
        trace = exp3pm_run(cfg, env, episode_rng(32, 1))
        assert trace.stopping_time == 26
        assert len(trace.rounds) == 25
        assert trace.budget_spent == 0.0
        assert trace.gain == pytest.approx(sum(r.rewards.sum() for r in trace.rounds))

    def test_pm_sigma_accumulator_definition(self):
        # sigma(t+1) = K sqrt(NT) + sum_tau 1 / (p_i(tau) sqrt(NT))
        cfg = BanditConfig(n_arms=3, plays=2, budget=1.0, c_min=0.5,
                           confidence=0.1, horizon=10)
        rng = episode_rng(33, 1)
        env = AdversarialEnv(rewards=rng.random((10, 3)),
                             costs=0.5 + 0.5 * rng.random((10, 3)))
        trace = exp3pm_run(cfg, env, episode_rng(34, 1))
        scale = 1.0 / math.sqrt(3 * 10)
        expected = 2 * math.sqrt(30) + sum(scale / r.probabilities for r in trace.rounds)
        assert np.allclose(trace.extras["sigma_acc"], expected, rtol=1e-12)

    def test_pmb_budget_semantics(self):
        cfg = BanditConfig(n_arms=4, plays=2, budget=12.0, c_min=0.5, confidence=0.1)
        rng = episode_rng(35, 1)
        env = AdversarialEnv(rewards=rng.random((15, 4)),
                             costs=0.5 + 0.5 * rng.random((15, 4)))
        trace = exp3pmb_run(cfg, env, episode_rng(36, 1))
        assert trace.budget_spent <= 12.0
        assert 12.0 - trace.budget_spent < 2
        credited = trace.rounds[:-1]
        assert sum(r.rewards.sum() for r in credited) == pytest.approx(trace.gain)

    def test_pmb_sigma_accumulator_definition(self):
        cfg = BanditConfig(n_arms=3, plays=2, budget=6.0, c_min=0.5, confidence=0.1)
        rng = episode_rng(37, 1)
        env = AdversarialEnv(rewards=rng.random((8, 3)),
                             costs=0.5 + 0.5 * rng.random((8, 3)))
        trace = exp3pmb_run(cfg, env, episode_rng(38, 1))
        scale = math.sqrt(2 * 0.5) / math.sqrt(3 * 6.0)
        expected = 2 * math.sqrt(3 * 6.0 / (2 * 0.5)) + sum(
            scale / r.probabilities for r in trace.rounds[:-1])
        assert np.allclose(trace.extras["sigma_acc"], expected, rtol=1e-12)


class TestClassicReduction:
    def test_k1_zero_cost_matches_classic_exp3(self):
        # single play with zero costs fed to the update reduces to Exp3:
        # log-weight trajectories agree to 1e-10 over a few hundred rounds
        n, gamma, rounds = 5, 0.3, 300
        rng = episode_rng(41, 1)
        rewards = rng.random((rounds, n))
        state = one_row_state(n, 1, gamma)
        classic_lw = np.zeros(n)
        arm_rng = episode_rng(42, 1)
        for t in range(rounds):
            # classic Exp3 probability map, written independently
            w = np.exp(classic_lw - classic_lw.max())
            p_classic = (1 - gamma) * w / w.sum() + gamma / n
            arm = int(arm_rng.choice(n, p=p_classic / p_classic.sum()))
            r = rewards[t, arm]
            # classic update
            classic_lw[arm] += (gamma / n) * (r / p_classic[arm])
            # same draw fed through the budgeted update with zero cost
            cap = compute_cap(WeightVector(state.log_weights[0]), gamma, 1, n)
            probs = compute_probabilities(cap, gamma, 1)
            assert cap.capped.size == 0  # K=1 never caps
            update(state, probs.p, (arm,), [r], [0.0])
        assert np.max(np.abs(state.log_weights[0] - classic_lw)) <= 1e-10
