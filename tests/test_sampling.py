import numpy as np
import pytest

from budgetbandits import (
    WeightVector,
    compute_cap,
    compute_probabilities,
    dependent_rounding,
    dependent_rounding_batch,
    episode_rng,
)
from budgetbandits.sampling import cap_ratio


def log_weights(*w):
    return WeightVector(np.log(np.asarray(w, dtype=np.float64)))


class TestComputeCap:
    def test_hand_derived_cap(self):
        # w = (10, 1, 1), K=2, N=3, nearly zero exploration: ratio ~ 0.5,
        # v = 0.5 * (1 + 1) / (1 - 0.5) = 2, only the heavy arm capped
        cap = compute_cap(log_weights(10, 1, 1), 1e-12, plays=2, n_arms=3)
        assert cap.capped.tolist() == [0]
        assert cap.v_t == pytest.approx(2.0, rel=1e-9)

    def test_uniform_weights_do_not_trigger(self):
        cap = compute_cap(log_weights(1, 1, 1, 1), 0.5, plays=2, n_arms=4)
        assert cap.log_v is None
        assert cap.capped.size == 0
        assert np.array_equal(cap.log_effective, np.zeros(4))

    def test_k_equals_n_caps_everything(self):
        cap = compute_cap(log_weights(5, 1, 3), 0.25, plays=3, n_arms=3)
        assert cap.capped.tolist() == [0, 1, 2]
        p = compute_probabilities(cap, 0.25, 3)
        assert np.allclose(p.p, 1.0, atol=1e-9)

    def test_gamma_one_skips_capping(self):
        cap = compute_cap(log_weights(100, 1, 1), 1.0, plays=2, n_arms=3)
        assert cap.log_v is None
        p = compute_probabilities(cap, 1.0, 2)
        assert np.allclose(p.p, 2.0 / 3.0)

    def test_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            compute_cap(log_weights(1, 1), 0.0, plays=1, n_arms=2)
        with pytest.raises(ValueError):
            compute_cap(log_weights(1, 1), 1.2, plays=1, n_arms=2)

    def test_defining_ratio_holds(self):
        rng = episode_rng(123, 1)
        for _ in range(200):
            n = int(rng.integers(2, 10))
            k = int(rng.integers(1, n))
            gamma = float(rng.uniform(0.01, 0.99))
            lw = rng.normal(0.0, 5.0, n)
            cap = compute_cap(WeightVector(lw), gamma, k, n)
            if cap.log_v is None:
                continue
            w = np.exp(lw - lw.max())
            v = np.exp(cap.log_v - lw.max())
            eff = np.minimum(w, v)
            assert v / eff.sum() == pytest.approx(cap_ratio(gamma, k, n), rel=1e-9)
            # separation: capped arms at or above v, others strictly below
            mask = np.zeros(n, dtype=bool)
            mask[cap.capped] = True
            assert np.all(w[mask] >= v * (1 - 1e-12))
            assert np.all(w[~mask] < v)

    def test_cap_fixpoint(self):
        # re-deriving v on the effective weights with the capped set forced
        # reproduces the same v_t
        rng = episode_rng(321, 1)
        seen = 0
        for _ in range(100):
            n = int(rng.integers(3, 9))
            k = int(rng.integers(2, n))
            gamma = float(rng.uniform(0.05, 0.9))
            lw = rng.normal(0.0, 4.0, n)
            cap = compute_cap(WeightVector(lw), gamma, k, n)
            if cap.log_v is None:
                continue
            seen += 1
            shift = cap.log_effective.max()
            eff = np.exp(cap.log_effective - shift)
            mask = np.zeros(n, dtype=bool)
            mask[cap.capped] = True
            ratio = cap_ratio(gamma, k, n)
            forced_v = ratio * eff[~mask].sum() / (1.0 - ratio * cap.capped.size)
            assert np.log(forced_v) + shift == pytest.approx(cap.log_v, abs=1e-9)
        assert seen > 10


class TestComputeProbabilities:
    def test_uniform_hand_value(self):
        cap = compute_cap(log_weights(1, 1, 1, 1), 0.5, plays=2, n_arms=4)
        p = compute_probabilities(cap, 0.5, 2)
        # 2 * (0.5 * 0.25 + 0.5/4) = 0.5 each
        assert np.allclose(p.p, 0.5, atol=1e-12)
        assert p.p.sum() == pytest.approx(2.0, abs=1e-9)

    def test_capped_arm_gets_probability_one(self):
        cap = compute_cap(log_weights(10, 1, 1), 1e-12, plays=2, n_arms=3)
        p = compute_probabilities(cap, 1e-12, 2)
        assert p.p[0] == pytest.approx(1.0, abs=1e-9)

    def test_exploration_only_limit(self):
        cap = compute_cap(log_weights(9, 2, 5, 1), 1.0, plays=3, n_arms=4)
        p = compute_probabilities(cap, 1.0, 3)
        assert np.allclose(p.p, 0.75)

    def test_normalization_over_random_states(self):
        rng = episode_rng(55, 1)
        for _ in range(300):
            n = int(rng.integers(2, 12))
            k = int(rng.integers(1, n + 1))
            gamma = float(rng.uniform(0.01, 1.0))
            lw = rng.normal(0.0, 6.0, n)
            cap = compute_cap(WeightVector(lw), gamma, k, n)
            p = compute_probabilities(cap, gamma, k).p
            assert p.sum() == pytest.approx(k, abs=1e-9)
            assert np.all(p >= 0.0) and np.all(p <= 1.0)
            assert np.all(p >= k * gamma / n - 1e-12)  # probability floor
            if cap.capped.size:
                assert np.allclose(p[cap.capped], 1.0, atol=1e-9)


class TestDependentRounding:
    def test_integral_vector_is_deterministic(self):
        rng = episode_rng(1, 1)
        for _ in range(10):
            arms = dependent_rounding(2, np.array([1.0, 0.0, 1.0]), rng)
            assert arms.tolist() == [0, 2]

    def test_rejects_bad_simplex(self):
        rng = episode_rng(1, 2)
        with pytest.raises(ValueError):
            dependent_rounding(2, np.array([0.5, 0.5, 0.5]), rng)
        with pytest.raises(ValueError):
            dependent_rounding(1, np.array([1.5, -0.5]), rng)

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
            arms = dependent_rounding(k, p, rng)
            assert arms.shape == (k,)
            assert np.unique(arms).size == k

    def test_single_draw_matches_batch_kernel_bitwise(self):
        # the unrolled single-draw path consumes the stream identically to
        # the batched kernel, so equal seeds give equal subsets
        from budgetbandits.sampling import _pairwise_round

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
            a = dependent_rounding(k, p, episode_rng(seed, 5))
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
