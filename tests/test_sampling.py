import numpy as np
import pytest

from budgetbandits import (
    AdversarialEnv,
    BanditConfig,
    ConfigError,
    dependent_rounding,
    episode_rng,
)
from budgetbandits.exp3 import Exp3State, Variant, _probabilities, cap_ratio, play_lockstep
from rounding_reference import _pairwise_round, dependent_rounding_batch


def log_weights(*w):
    return np.log(np.asarray(w, dtype=np.float64))


def probabilities(log_w, gamma, plays):
    """p and the sorted capped arms of one budgeted state with log weights
    ``log_w``, as the engine maps them."""
    state = Exp3State(Variant.MB, len(log_w), plays, gamma)
    state.log_weights = [float(x) for x in log_w]
    [(p, capped)] = _probabilities([state])
    return np.array(p), sorted(capped)


def capped_mask(n, capped):
    mask = np.zeros(n, dtype=bool)
    mask[capped] = True
    return mask


class TestComputeCap:
    """The engine's cap (exp3._cap), seen through the probabilities it maps.

    The cap v solves v / sum_i min(w_i, v) = ratio exactly when each capped
    arm's p before the clip, K((1 - gamma) ratio + gamma / N), is 1; after
    the clip the p still sum to K only if no capped arm lost more than that
    sum's error. p grows with the weight and reaches 1 at v, so the
    separation (capped arms at or above v, the rest strictly below) holds
    exactly when every uncapped arm has p < 1 and every capped arm's own
    weight maps to p >= 1.
    """

    def test_hand_derived_cap(self):
        # w = (10, 1, 1), K=2, N=3, nearly zero exploration: ratio ~ 0.5,
        # v = 0.5 * (1 + 1) / (1 - 0.5) = 2, only the heavy arm capped; an
        # uncapped arm gets p = K / (v + 2)
        p, capped = probabilities(log_weights(10, 1, 1), 1e-12, plays=2)
        assert capped == [0]
        assert 2.0 / p[1] - 2.0 == pytest.approx(2.0, rel=1e-9)

    def test_uniform_weights_do_not_trigger(self):
        p, capped = probabilities(log_weights(1, 1, 1, 1), 0.5, plays=2)
        assert capped == []
        assert p.tolist() == [0.5] * 4

    def test_k_equals_n_caps_everything(self):
        p, capped = probabilities(log_weights(5, 1, 3), 0.25, plays=3)
        assert capped == [0, 1, 2]
        assert np.allclose(p, 1.0, atol=1e-9)

    def test_gamma_one_skips_capping(self):
        p, capped = probabilities(log_weights(100, 1, 1), 1.0, plays=2)
        assert capped == []
        assert np.allclose(p, 2.0 / 3.0)

    def test_gamma_out_of_range(self):
        cfg = BanditConfig(n_arms=2, plays=1, budget=4.0, c_min=0.5)
        env = AdversarialEnv(rewards=np.full((10, 2), 0.5), costs=np.full((10, 2), 0.5))
        for gamma in (0.0, 1.2):
            with pytest.raises(ConfigError):
                play_lockstep(Variant.MB, cfg, env, [episode_rng(1, 1)], gamma=gamma)

    def test_defining_ratio_holds(self):
        rng = episode_rng(123, 1)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n))
            gamma = float(rng.uniform(0.01, 0.99))
            lw = rng.normal(0.0, 5.0, n)
            p, capped = probabilities(lw, gamma, k)
            if not capped:
                continue
            mask = capped_mask(n, capped)
            # the ratio: every capped arm at p = 1, and nothing clipped off the sum
            assert np.all(np.abs(p[mask] - 1.0) <= 1e-9)
            assert p.sum() == pytest.approx(k, abs=1e-9)
            # separation: uncapped arms below p = 1, and the capped arms'
            # own weights at or above it on the same map (its total read off
            # the heaviest uncapped arm j: w_j / total = (p_j / K - gamma / N) / (1 - gamma))
            assert np.all(p[~mask] < 1.0)
            w = np.exp(lw - lw.max())
            j = np.flatnonzero(~mask)[np.argmax(w[~mask])]
            total = w[j] * (1.0 - gamma) / (p[j] / k - gamma / n)
            own = k * ((1.0 - gamma) * w[mask] / total + gamma / n)
            assert np.all(own >= 1.0 - 1e-9)

    def test_cap_fixpoint(self):
        # re-deriving v on the weights with the capped set forced reproduces
        # the probabilities of the uncapped arms
        rng = episode_rng(321, 1)
        seen = 0
        for _ in range(100):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(2, n))
            gamma = float(rng.uniform(0.05, 0.9))
            lw = rng.normal(0.0, 4.0, n)
            p, capped = probabilities(lw, gamma, k)
            if not capped:
                continue
            seen += 1
            w = np.exp(lw - lw.max())
            mask = capped_mask(n, capped)
            ratio = cap_ratio(gamma, k, n)
            forced_v = ratio * w[~mask].sum() / (1.0 - ratio * len(capped))
            total = w[~mask].sum() + len(capped) * forced_v
            expected = k * ((1.0 - gamma) * w[~mask] / total + gamma / n)
            assert np.all(np.abs(p[~mask] - expected) <= 1e-9)
        assert seen > 10


class TestComputeProbabilities:
    """The engine's probability map (exp3._probabilities) on one-row states."""

    def test_uniform_hand_value(self):
        p, _ = probabilities(log_weights(1, 1, 1, 1), 0.5, plays=2)
        # 2 * (0.5 * 0.25 + 0.5/4) = 0.5 each
        assert np.allclose(p, 0.5, atol=1e-12)
        assert p.sum() == pytest.approx(2.0, abs=1e-9)

    def test_capped_arm_gets_probability_one(self):
        p, _ = probabilities(log_weights(10, 1, 1), 1e-12, plays=2)
        assert p[0] == pytest.approx(1.0, abs=1e-9)

    def test_exploration_only_limit(self):
        p, _ = probabilities(log_weights(9, 2, 5, 1), 1.0, plays=3)
        assert np.allclose(p, 0.75)

    def test_normalization_over_random_states(self):
        rng = episode_rng(55, 1)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            gamma = float(rng.uniform(0.01, 1.0))
            lw = rng.normal(0.0, 6.0, n)
            p, capped = probabilities(lw, gamma, k)
            assert p.sum() == pytest.approx(k, abs=1e-9)
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            assert np.all(p >= k * gamma / n - 1e-12)  # probability floor
            if capped:
                assert np.allclose(p[capped], 1.0, atol=1e-9)


class TestDependentRounding:
    def test_integral_vector_is_deterministic(self):
        rng = episode_rng(1, 1)
        for _ in range(10):
            assert dependent_rounding(2, [1.0, 0.0, 1.0], rng.random) == [0, 2]

    def test_rejects_bad_simplex(self):
        rng = episode_rng(1, 2)
        with pytest.raises(ValueError):
            dependent_rounding(2, [0.5, 0.5, 0.5], rng.random)
        with pytest.raises(ValueError):
            dependent_rounding(1, [1.5, -0.5], rng.random)

    def test_forced_arm_and_half_marginals(self):
        rng = episode_rng(77, 1)
        draws = dependent_rounding_batch(2, np.array([0.5, 0.5, 1.0]), 10 ** 5, rng)
        assert draws.shape == (10 ** 5, 2)
        freq = np.bincount(draws.ravel(), minlength=3) / 10 ** 5
        assert freq[2] == 1.0
        assert abs(freq[0] - 0.5) < 0.01
        assert abs(freq[1] - 0.5) < 0.01

    def test_two_thirds_marginals(self):
        rng = episode_rng(78, 1)
        p = np.full(3, 2.0 / 3.0)
        draws = dependent_rounding_batch(2, p, 10 ** 5, rng)
        freq = np.bincount(draws.ravel(), minlength=3) / 10 ** 5
        assert np.all(np.abs(freq - 2.0 / 3.0) < 0.01)

    def test_cardinality_and_distinctness(self):
        rng = episode_rng(79, 1)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            p = rng.dirichlet(np.ones(n)) * k
            while np.any(p > 1.0):  # project surplus back onto the simplex
                over = p > 1.0
                excess = (p[over] - 1.0).sum()
                p[over] = 1.0
                room = ~over
                p[room] += excess * (1.0 - p[room]) / max((1.0 - p[room]).sum(), 1e-12)
            arms = dependent_rounding(k, p.tolist(), rng.random)
            assert len(arms) == k
            assert np.unique(arms).size == k

    def test_single_draw_matches_batch_kernel_bitwise(self):
        # the single-draw kernel consumes the stream identically to the
        # batched reference kernel, so equal seeds give equal subsets
        rng = episode_rng(81, 1)
        for _ in range(200):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            p = rng.dirichlet(np.ones(n)) * k
            p = np.minimum(p, 1.0)
            p[0] += k - p.sum()  # restore the sum after clipping
            if p[0] < 0 or p[0] > 1:
                continue
            seed = int(rng.integers(1 << 30))
            a = dependent_rounding(k, p.tolist(), episode_rng(seed, 5).random)
            b = _pairwise_round(p[None, :], k, episode_rng(seed, 5))[0]
            assert np.array_equal(a, b)

    def test_marginals_three_sigma(self):
        # binomial 3-sigma check on a non-trivial vector
        rng = episode_rng(80, 1)
        p = np.array([0.9, 0.7, 0.25, 0.1, 0.05])
        n = 10 ** 5
        draws = dependent_rounding_batch(2, p, n, rng)
        freq = np.bincount(draws.ravel(), minlength=5) / n
        sigma = np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(freq - p) <= 3.0 * sigma)
