import math

import numpy as np
import pytest

from budgetbandits import (
    AdversarialEnv,
    BanditConfig,
    ConfigError,
    LowerBoundSpec,
    PolicySpec,
    RunSpec,
    StochasticEnv,
    episode_rng,
    oracle_gain_adversarial,
    oracle_gain_fixed_horizon,
    oracle_gain_stochastic,
    run_replications,
    simulate_fixed_subset,
    ucb_run_episode,
)
from budgetbandits.harness import materialize_environment, run_spec_from_dict, run_spec_to_dict
from budgetbandits.serialize import dumps


def column_env(rewards_by_arm, costs_by_arm, t_max):
    n = len(rewards_by_arm)
    return AdversarialEnv(
        rewards=np.tile(np.asarray(rewards_by_arm, dtype=float), (t_max, 1)),
        costs=np.tile(np.asarray(costs_by_arm, dtype=float), (t_max, 1)),
    )


class TestAdversarialOracle:
    def test_hand_enumerated_instance(self):
        # two arms paying (1, 0) at cost 1: three affordable rounds of arm 0
        env = column_env([1.0, 0.0], [1.0, 1.0], t_max=4)
        cfg = BanditConfig(n_arms=2, plays=1, budget=3.0, c_min=0.9)
        a_star, g_max = oracle_gain_adversarial(env, cfg)
        assert a_star == (0,)
        assert g_max == pytest.approx(3.0)

    def test_identical_arms_tie_to_lexicographic(self):
        env = column_env([0.5, 0.5, 0.5], [0.6, 0.6, 0.6], t_max=20)
        cfg = BanditConfig(n_arms=3, plays=2, budget=6.0, c_min=0.5)
        a_star, _ = oracle_gain_adversarial(env, cfg)
        assert a_star == (0, 1)

    def test_k_equals_n_single_subset(self):
        env = column_env([0.5, 0.25], [0.5, 0.5], t_max=20)
        cfg = BanditConfig(n_arms=2, plays=2, budget=5.0, c_min=0.5)
        a_star, g_max = oracle_gain_adversarial(env, cfg)
        assert a_star == (0, 1)
        assert g_max == pytest.approx(simulate_fixed_subset(env, (0, 1), 5.0))

    def test_sequence_too_short_raises(self):
        env = column_env([1.0, 0.0], [1.0, 1.0], t_max=2)
        cfg = BanditConfig(n_arms=2, plays=1, budget=3.0, c_min=0.9)
        with pytest.raises(ConfigError, match="exhausted"):
            oracle_gain_adversarial(env, cfg)

    def test_matches_independent_brute_force(self):
        # a from-scratch re-simulation, kept deliberately naive
        from itertools import combinations

        rng = episode_rng(90, 1)
        for i in range(10):
            n = int(rng.integers(2, 6))
            k = int(rng.integers(1, n + 1))
            budget = float(rng.uniform(4.0, 12.0))
            t_max = int(math.ceil(budget / (k * 0.5))) + 1
            env = AdversarialEnv(rewards=rng.random((t_max, n)),
                                 costs=0.5 + 0.5 * rng.random((t_max, n)))
            cfg = BanditConfig(n_arms=n, plays=k, budget=budget, c_min=0.5)
            best_gain, best_set = -1.0, None
            for subset in combinations(range(n), k):
                left, total = budget, 0.0
                for t in range(t_max):
                    c = sum(env.costs[t, j] for j in subset)
                    if c > left:
                        break
                    left -= c
                    total += sum(env.rewards[t, j] for j in subset)
                if total > best_gain:
                    best_gain, best_set = total, subset
            a_star, g_max = oracle_gain_adversarial(env, cfg)
            assert g_max == best_gain  # bitwise
            assert a_star == best_set

    def test_greedy_mode_runs(self):
        env = column_env([0.9, 0.5, 0.1], [0.5, 0.5, 0.5], t_max=30)
        cfg = BanditConfig(n_arms=3, plays=2, budget=8.0, c_min=0.5)
        a_star, g_max = oracle_gain_adversarial(env, cfg, mode="greedy")
        assert a_star == (0, 1)
        assert g_max == pytest.approx(simulate_fixed_subset(env, (0, 1), 8.0))


class TestFixedHorizonOracle:
    def test_top_columns(self):
        env = column_env([0.2, 0.9, 0.5], [0.5, 0.5, 0.5], t_max=10)
        a_star, g_max = oracle_gain_fixed_horizon(env, 10, 2)
        assert a_star == (1, 2)
        assert g_max == pytest.approx(10 * 1.4)

    def test_horizon_beyond_sequence(self):
        env = column_env([0.2, 0.9], [0.5, 0.5], t_max=5)
        with pytest.raises(ConfigError):
            oracle_gain_fixed_horizon(env, 6, 1)


class TestStochasticOracle:
    def test_hand_ratios(self):
        env = StochasticEnv(mean_rewards=[0.9, 0.5], mean_costs=[0.9, 1.0], c_min=0.5)
        cfg = BanditConfig(n_arms=2, plays=1, budget=10.0, c_min=0.5)
        oracle = oracle_gain_stochastic(env, cfg)
        assert oracle.a_star == (0,)
        assert oracle.proxy_gain == pytest.approx(10.0)

    def test_equal_ratios_tie_lexicographic(self):
        env = StochasticEnv(mean_rewards=[0.6, 0.6, 0.6], mean_costs=[0.6, 0.6, 0.6], c_min=0.5)
        cfg = BanditConfig(n_arms=3, plays=2, budget=10.0, c_min=0.5)
        assert oracle_gain_stochastic(env, cfg).a_star == (0, 1)

    def test_proxy_within_brackets(self):
        rng = episode_rng(91, 1)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            k = int(rng.integers(1, n + 1))
            env = StochasticEnv(mean_rewards=rng.uniform(0.1, 1.0, n),
                                mean_costs=rng.uniform(0.5, 1.0, n), c_min=0.5)
            cfg = BanditConfig(n_arms=n, plays=k, budget=float(rng.uniform(5, 50)), c_min=0.5)
            oracle = oracle_gain_stochastic(env, cfg)
            assert oracle.lower_bracket <= oracle.proxy_gain <= oracle.upper_bracket


class TestRunReplications:
    def test_single_replication_hand_regret(self):
        # point-mass instance forces a fixed path: the exploration guard keeps
        # every score infinite this early, so ties send each round to arm 0.
        # rounds: init (r 2.0, c 1.5), then arm 0 once (r 1.0, c 0.5); the
        # third draw terminates: gain 3 against proxy (1/0.5)*2 = 4
        cfg = BanditConfig(n_arms=2, plays=1, budget=2.0, c_min=0.5)
        env = StochasticEnv(mean_rewards=[1.0, 1.0], mean_costs=[0.5, 1.0], c_min=0.5)
        spec = RunSpec(cfg, PolicySpec("ucb_mb"), env, replications=1, base_seed=5)
        report = run_replications(spec)
        assert report.oracle_gain == pytest.approx(4.0)
        assert report.mean_gain == pytest.approx(3.0)
        assert report.mean_regret == pytest.approx(1.0)
        assert report.per_replication == [(3.0, 3)]
        assert "thm1" in report.bound_values

    def test_bit_identical_reports(self):
        rng = episode_rng(92, 1)
        env = AdversarialEnv(rewards=rng.random((25, 4)),
                             costs=0.5 + 0.5 * rng.random((25, 4)))
        cfg = BanditConfig(n_arms=4, plays=2, budget=10.0, c_min=0.5)
        spec = RunSpec(cfg, PolicySpec("exp3_mb", gamma=0.3), env,
                       replications=4, base_seed=11)
        a = dumps(run_replications(spec).to_dict())
        b = dumps(run_replications(spec).to_dict())
        assert a == b

    def test_ucb_replications_are_plain_episodes(self):
        # reporting must not change what the policy plays: replication i is
        # ucb_run_episode on stream i + 1, bit for bit
        cfg = BanditConfig(n_arms=4, plays=2, budget=300.0, c_min=0.5)
        env = StochasticEnv(mean_rewards=[0.9, 0.8, 0.6, 0.5],
                            mean_costs=[0.5, 0.7, 0.6, 0.9], c_min=0.5)
        report = run_replications(RunSpec(cfg, PolicySpec("ucb_mb"), env, 8, 3))
        for i, (gain, stop) in enumerate(report.per_replication):
            alone = ucb_run_episode(cfg, env, episode_rng(3, i + 1), record=False)
            assert (gain.hex(), stop) == (float(alone.gain).hex(), alone.stopping_time)

    def test_mean_regret_statistical_sanity(self):
        # a randomized policy can beat the best fixed subset on a sample path,
        # so only assert mean regret above -3 standard errors
        rng = episode_rng(94, 1)
        env = AdversarialEnv(rewards=rng.random((45, 4)),
                             costs=0.5 + 0.5 * rng.random((45, 4)))
        cfg = BanditConfig(n_arms=4, plays=2, budget=20.0, c_min=0.5)
        spec = RunSpec(cfg, PolicySpec("exp3_mb", g="oracle"), env, 30, 17)
        report = run_replications(spec)
        assert report.mean_regret >= -3.0 * report.regret_std_error
        assert report.bound_values["thm2_g"] == pytest.approx(report.oracle_gain)

    def test_oracle_gamma_resolution_matches_manual(self):
        rng = episode_rng(95, 1)
        env = AdversarialEnv(rewards=rng.random((25, 3)),
                             costs=0.5 + 0.5 * rng.random((25, 3)))
        cfg = BanditConfig(n_arms=3, plays=1, budget=8.0, c_min=0.5)
        auto = run_replications(RunSpec(cfg, PolicySpec("exp3_mb", g="oracle"), env, 2, 3))
        _, g_max = oracle_gain_adversarial(env, cfg)
        from budgetbandits import tune_gamma_mb
        gamma = tune_gamma_mb(g_max, 8.0, 3, 1, 0.5)
        manual = run_replications(RunSpec(cfg, PolicySpec("exp3_mb", gamma=gamma), env, 2, 3))
        assert auto.per_replication == manual.per_replication

    def test_violation_fraction_for_high_probability_policies(self):
        rng = episode_rng(96, 1)
        env = AdversarialEnv(rewards=rng.random((30, 4)),
                             costs=0.5 + 0.5 * rng.random((30, 4)))
        cfg = BanditConfig(n_arms=4, plays=2, budget=10.0, c_min=0.5,
                           confidence=0.1, horizon=25)
        pm = run_replications(RunSpec(cfg, PolicySpec("exp3_pm"), env, 3, 21))
        assert pm.violation_fraction is not None
        assert "thm4" in pm.bound_values
        pmb = run_replications(RunSpec(cfg, PolicySpec("exp3_pmb"), env, 3, 21))
        assert pmb.violation_fraction is not None
        assert "thm5" in pmb.bound_values

    def test_regret_recomputable_from_report(self):
        rng = episode_rng(97, 1)
        env = AdversarialEnv(rewards=0.8 + 0.2 * rng.random((25, 3)),
                             costs=0.5 + 0.2 * rng.random((25, 3)))
        cfg = BanditConfig(n_arms=3, plays=2, budget=8.0, c_min=0.5)
        report = run_replications(RunSpec(cfg, PolicySpec("exp3_1_mb"), env, 5, 23))
        gains = [g for g, _ in report.per_replication]
        assert report.mean_gain == pytest.approx(float(np.mean(gains)))
        assert report.mean_regret == pytest.approx(report.oracle_gain - np.mean(gains))

    def test_fixed_horizon_policy_on_stochastic_env(self):
        env = StochasticEnv(mean_rewards=[0.9, 0.5, 0.3],
                            mean_costs=[0.5, 0.6, 0.7], c_min=0.5)
        cfg = BanditConfig(n_arms=3, plays=2, budget=1.0, c_min=0.5,
                           confidence=0.1, horizon=20)
        report = run_replications(RunSpec(cfg, PolicySpec("exp3_pm"), env, 2, 29))
        assert report.oracle_mode == "stochastic_horizon_proxy"
        assert report.oracle_gain == pytest.approx((0.9 + 0.5) * 20)
        assert all(t == 21 for _, t in report.per_replication)

    def test_ucb_on_adversarial_env_rejected(self):
        env = column_env([0.5, 0.5], [0.6, 0.6], t_max=10)
        cfg = BanditConfig(n_arms=2, plays=1, budget=3.0, c_min=0.5)
        with pytest.raises(ConfigError, match="stochastic"):
            run_replications(RunSpec(cfg, PolicySpec("ucb_mb"), env, 1, 1))

    def test_irrationality_warning_for_doubling(self):
        rng = episode_rng(98, 1)
        env = AdversarialEnv(rewards=0.0 * rng.random((25, 3)),
                             costs=0.5 + 0.5 * rng.random((25, 3)))
        cfg = BanditConfig(n_arms=3, plays=2, budget=6.0, c_min=0.5)
        with pytest.warns(UserWarning, match="reward-covers-cost"):
            run_replications(RunSpec(cfg, PolicySpec("exp3_1_mb"), env, 1, 1))


class TestSpecs:
    def test_policy_spec_validation(self):
        with pytest.raises(ConfigError):
            PolicySpec("nope")
        with pytest.raises(ConfigError):
            PolicySpec("exp3_mb")  # needs gamma or g
        with pytest.raises(ConfigError):
            PolicySpec("exp3_mb", gamma=0.2, g=10.0)
        with pytest.raises(ConfigError):
            PolicySpec("exp3_mb", g="best")

    @pytest.mark.parametrize("name", ["ucb_mb", "exp3_1_mb", "exp3_pm", "exp3_pmb"])
    @pytest.mark.parametrize("kwargs", [dict(gamma=0.3), dict(g=10.0), dict(g="oracle")])
    def test_gamma_and_g_only_for_exp3_mb(self, name, kwargs):
        with pytest.raises(ConfigError, match="neither gamma nor g"):
            PolicySpec(name, **kwargs)

    def test_run_spec_dict_round_trip(self):
        cfg = BanditConfig(n_arms=3, plays=2, budget=8.0, c_min=0.5, horizon=None)
        env = StochasticEnv(mean_rewards=[0.9, 0.5, 0.4],
                            mean_costs=[0.5, 0.6, 0.7], c_min=0.5)
        spec = RunSpec(cfg, PolicySpec("ucb_mb"), env, replications=3, base_seed=9)
        back = run_spec_from_dict(run_spec_to_dict(spec))
        assert back.config == cfg
        assert back.policy == spec.policy
        assert back.replications == 3 and back.base_seed == 9

    def test_lower_bound_spec_materializes_deterministically(self):
        cfg = BanditConfig(n_arms=4, plays=2, budget=20.0, c_min=0.5)
        spec = RunSpec(cfg, PolicySpec("exp3_mb", gamma=0.2),
                       LowerBoundSpec(eps=0.1), replications=1, base_seed=31)
        env1 = materialize_environment(spec)
        env2 = materialize_environment(spec)
        assert np.array_equal(env1.rewards, env2.rewards)
        assert env1.t_max == 21

    def test_bad_spec_dict_raises_config_error(self):
        with pytest.raises(ConfigError):
            run_spec_from_dict({"config": {"n_arms": 2}})


class TestSerialize:
    def test_float_formatting_17_digits(self):
        assert dumps(0.1) == "0.10000000000000001"
        assert dumps(1.0) == "1"
        assert dumps({"a": [1, 2.5]}) == '{"a":[1,2.5]}'

    def test_numpy_values(self):
        assert dumps(np.float64(0.5)) == "0.5"
        assert dumps(np.array([1.0, 2.0])) == "[1,2]"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))
