import math
from itertools import combinations

import numpy as np
import pytest

from budgetbandits import (
    StochasticBoundParams,
    StochasticEnv,
    bang_per_buck_gaps,
    episode_rng,
    make_lower_bound_env,
    prop1_bound,
    thm1_bound,
    thm2_bound,
    thm3_lower_bound,
    thm4_bound,
    thm5_bound,
    tuned_eps,
)

E = math.e

# Expected values below were hand-derived from the closed forms and frozen at
# double precision via an independent 40-digit evaluation.


class TestThm1:
    def params(self):
        return StochasticBoundParams(n_arms=2, plays=1, c_min=1.0 - 1e-15,
                                     delta_min=1.0, delta_max=1.0,
                                     opt_cost_sum=1.0, opt_reward_sum=1.0)

    def test_intermediate_constants(self):
        # K=1, c_min=1, delta_min=1: gamma = 2 * ((1+4)/1)^2 = 50,
        # delta = 1 + pi^2/3
        cons = thm1_bound(self.params(), 10.0).constituents
        assert cons["gamma_const"] == pytest.approx(50.0, rel=1e-9)
        assert cons["delta_const"] == pytest.approx(4.2898681336964529, rel=1e-12)

    def test_stopping_time_constants(self):
        cons = thm1_bound(self.params(), 10.0).constituents
        assert cons["c2"] == pytest.approx(9.5797362673929057, rel=1e-9)
        assert cons["c3"] == pytest.approx(100.0, rel=1e-9)
        assert cons["c1"] == pytest.approx(876.82294584439315, rel=1e-6)

    def test_value_recombines_from_constituents(self):
        bound = thm1_bound(self.params(), 25.0)
        cons = bound.constituents
        rebuilt = cons["term_ratio"] + cons["term_opt"] + cons["term_gap"]
        assert bound.value == pytest.approx(rebuilt, rel=1e-12)

    def test_doubling_budget_adds_log_coefficient_times_log2(self):
        params = self.params()
        big = 10.0 ** 12
        lo = thm1_bound(params, big)
        hi = thm1_bound(params, 2 * big)
        slope = lo.constituents["log_coefficient"]
        assert hi.value - lo.value == pytest.approx(slope * math.log(2.0), rel=1e-6)

    def test_rejects_nonpositive_gap(self):
        with pytest.raises(ValueError):
            StochasticBoundParams(n_arms=2, plays=1, c_min=0.5, delta_min=0.0,
                                  delta_max=1.0, opt_cost_sum=1.0, opt_reward_sum=1.0)


class TestThm2:
    def test_hand_value(self):
        assert thm2_bound(200.0, 100.0, 10, 2, 0.5) == pytest.approx(
            213.01963033344011, rel=1e-6)

    def test_k_equals_n_collapses_to_k(self):
        assert thm2_bound(50.0, 20.0, 3, 3, 0.5) == pytest.approx(3.0)

    def test_increasing_in_budget(self):
        values = [thm2_bound(200.0, b, 10, 2, 0.5) for b in (50, 100, 200, 400)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_single_play_scaling_constant_in_n(self):
        # (bound - K) / sqrt(N log N) stays flat across N for K = 1
        ref = None
        for n in (4, 8, 16, 32):
            scaled = (thm2_bound(200.0, 100.0, n, 1, 0.5) - 1.0) / math.sqrt(n * math.log(n))
            if ref is None:
                ref = scaled
            assert scaled == pytest.approx(ref, rel=0.01)

    def test_rejects_bad_gain_bound(self):
        with pytest.raises(ValueError):
            thm2_bound(0.0, 10.0, 4, 2, 0.5)


class TestProp1:
    def test_hand_value(self):
        assert prop1_bound(30.0, 20.0, 4, 2, 0.5) == pytest.approx(
            83.088125055258926, rel=1e-6)

    def test_decreasing_in_budget(self):
        values = [prop1_bound(30.0, b, 4, 2, 0.5) for b in (5, 10, 20, 30)]
        assert all(x > y for x, y in zip(values, values[1:]))

    def test_negative_radicand_rejected(self):
        with pytest.raises(ValueError):
            prop1_bound(5.0, 20.0, 4, 2, 0.5)

    def test_no_budget_limit_approaches_draft_form(self):
        # at c_min -> 0 and B = 0 only the +K constant and the K inside the
        # radicand separate this from the no-budget bound, so the relative
        # difference vanishes for large optimal gains
        g_max, n, k = 10.0 ** 6, 4, 2
        with_budget = prop1_bound(g_max, 0.0, n, k, 1e-12)
        draft = (8.0 * math.sqrt(E - 1.0) * math.sqrt(g_max * n * math.log(n / k))
                 + 8.0 * (E - 1.0) * n / k + 2.0 * n * math.log(n / k))
        assert with_budget == pytest.approx(draft, rel=1e-3)
        assert with_budget > draft


class TestThm3:
    def test_tuned_hand_value(self):
        value, eps, degenerate = thm3_lower_bound(1000.0, 10, 2, 1.0 - 1e-15)
        assert not degenerate
        assert value == pytest.approx(10.546748498804294, rel=1e-6)
        assert eps == pytest.approx(0.026366871247010734, rel=1e-6)

    def test_k_equals_n_degenerates_to_zero(self):
        value, _, degenerate = thm3_lower_bound(100.0, 4, 4, 0.5)
        assert value == 0.0 and degenerate

    def test_eps_form_equals_tuned_when_clamp_inactive(self):
        budget, n, k, c = 1000.0, 10, 2, 0.9
        eps = tuned_eps(budget, n, k, c)
        assert eps < 0.25  # clamp inactive
        tuned = thm3_lower_bound(budget, n, k, c)
        explicit = thm3_lower_bound(budget, n, k, c, eps=eps)
        assert explicit.value == pytest.approx(tuned.value, abs=1e-9)

    def test_tuned_at_most_eps_form_when_clamped(self):
        budget, n, k, c = 20.0, 10, 1, 0.9
        assert tuned_eps(budget, n, k, c) == 0.25
        tuned = thm3_lower_bound(budget, n, k, c)
        explicit = thm3_lower_bound(budget, n, k, c, eps=0.25)
        assert tuned.value <= explicit.value + 1e-12

    def test_eps_validation(self):
        with pytest.raises(ValueError):
            thm3_lower_bound(100.0, 4, 2, 0.5, eps=0.3)
        with pytest.raises(ValueError):
            thm3_lower_bound(100.0, 4, 2, 0.5, eps=0.0)


class TestThm4:
    def test_hand_value(self):
        assert thm4_bound(10, 2, 1000, 0.1) == pytest.approx(
            4083.2429758597938, rel=1e-6)

    def test_k_equals_n_is_exactly_zero(self):
        assert thm4_bound(10, 10, 1000, 0.1) == 0.0

    def test_increasing_in_horizon(self):
        values = [thm4_bound(10, 2, t, 0.1) for t in (100, 1000, 10000)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_single_arm_rejected(self):
        with pytest.raises(ValueError):
            thm4_bound(1, 1, 100, 0.1)


class TestThm5:
    def test_hand_value(self):
        assert thm5_bound(10, 2, 100.0, 0.5, 0.1) == pytest.approx(
            2435.5319075155883, rel=1e-6)

    def test_cmin_near_one_kills_first_term(self):
        c = 1.0 - 1e-12
        f = 8.0 / 9.0
        log_conf = math.log(10 * 100.0 / (2 * c * 0.1))
        tail = (4.0 * math.sqrt(6.0) * f * log_conf
                + 2.0 * math.sqrt(6.0) * 5 * math.sqrt(f * 10 * 100.0 / (2 * c) * log_conf))
        assert thm5_bound(10, 2, 100.0, c, 0.1) == pytest.approx(tail, rel=1e-5)

    def test_k_equals_n_is_zero(self):
        assert thm5_bound(10, 10, 100.0, 0.5, 0.1) == 0.0


class TestGaps:
    def test_known_instance(self):
        env = StochasticEnv(mean_rewards=[0.9, 0.9, 0.7, 0.6],
                            mean_costs=[0.5, 0.6, 0.7, 0.75], c_min=0.5)
        # ratios 1.8, 1.5, 1.0, 0.8
        d_min, d_max = bang_per_buck_gaps(env, 2)
        assert d_min == pytest.approx(0.5)
        assert d_max == pytest.approx(3.3 - 1.8)

    def test_enumeration_matches_sorted_shortcut(self):
        # the closed form against the gaps between all K-subset sums
        rng = episode_rng(61, 1)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(1, n))
            mc = rng.uniform(0.5, 1.0, n)
            mr = rng.uniform(0.05, 1.0, n)
            env = StochasticEnv(mean_rewards=mr, mean_costs=mc, c_min=0.5)
            d_min, d_max = bang_per_buck_gaps(env, k)
            sums = sorted((float(env.ratios[list(a)].sum()) for a in combinations(range(n), k)),
                          reverse=True)
            assert d_min == pytest.approx(sums[0] - sums[1], rel=1e-9)
            assert d_max == pytest.approx(sums[0] - sums[-1], rel=1e-9)

    def test_tied_ratios_give_zero_gap(self):
        # arms 1 and 3 tie for the K-th ratio: two subsets are optimal, and
        # their sums differ by rounding
        env = StochasticEnv(mean_rewards=[0.595, 0.125, 0.778, 0.125],
                            mean_costs=[0.665, 0.894, 0.652, 0.894], c_min=0.5)
        assert bang_per_buck_gaps(env, 3)[0] == 0.0
        with pytest.raises(ValueError, match="delta_min"):
            StochasticBoundParams.from_env(env, 3)

    def test_from_env_fills_opt_sums(self):
        env = StochasticEnv(mean_rewards=[0.9, 0.9, 0.7, 0.6],
                            mean_costs=[0.5, 0.6, 0.7, 0.75], c_min=0.5)
        params = StochasticBoundParams.from_env(env, 2)
        assert params.opt_reward_sum == pytest.approx(1.8)
        assert params.opt_cost_sum == pytest.approx(1.1)


class TestLowerBoundEnv:
    def test_shapes_and_supports(self):
        env = make_lower_bound_env(6, 2, 30.0, 0.5, 0.1, episode_rng(70, 1))
        assert env.t_max == 31 and env.n_arms == 6
        assert set(np.unique(env.rewards)) <= {0.0, 1.0}
        assert set(np.unique(env.costs)) <= {0.5, 1.0}

    def test_good_arm_empirical_means(self):
        eps, c = 0.1, 0.5
        budget = 99999.0  # 1e5 rows
        env = make_lower_bound_env(4, 2, budget, c, eps, episode_rng(71, 1), good_set=(0, 2))
        assert env.t_max == 10 ** 5
        r_mean = env.rewards.mean(axis=0)
        c_mean = env.costs.mean(axis=0)
        for good in (0, 2):
            assert abs(r_mean[good] - (0.5 + eps)) < 0.005
            assert abs(c_mean[good] - ((0.5 + eps) * c + (0.5 - eps))) < 0.005
        for bad in (1, 3):
            assert abs(r_mean[bad] - 0.5) < 0.005
            assert abs(c_mean[bad] - (0.5 * c + 0.5)) < 0.005

    def test_eps_zero_override_is_symmetric(self):
        env = make_lower_bound_env(4, 2, 99999.0, 0.5, 0.0, episode_rng(72, 1))
        assert np.all(np.abs(env.rewards.mean(axis=0) - 0.5) < 0.01)

    def test_deterministic_given_stream(self):
        a = make_lower_bound_env(5, 2, 40.0, 0.5, 0.2, episode_rng(73, 9))
        b = make_lower_bound_env(5, 2, 40.0, 0.5, 0.2, episode_rng(73, 9))
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.costs, b.costs)

    def test_validations(self):
        rng = episode_rng(74, 1)
        with pytest.raises(ValueError):
            make_lower_bound_env(4, 2, 10.0, 0.5, 0.3, rng)
        with pytest.raises(ValueError):
            make_lower_bound_env(4, 2, 10.0, 0.5, 0.1, rng, good_set=(0,))
        with pytest.raises(IndexError):
            make_lower_bound_env(4, 2, 10.0, 0.5, 0.1, rng, good_set=(0, 9))
