import numpy as np
import pytest

from budgetbandits import (
    AdversarialEnv,
    BanditConfig,
    ConfigError,
    Family,
    SequenceExhausted,
    StochasticEnv,
    default_t_max,
    env_from_dict,
    env_to_dict,
    episode_rng,
    lookup_round,
    sample_round,
    validate_config,
)


def test_validate_config_accepts_valid():
    cfg = BanditConfig(n_arms=4, plays=2, budget=10.0, c_min=0.5)
    assert validate_config(cfg) is cfg


def test_validate_config_rejects_k_above_n():
    with pytest.raises(ConfigError, match="K exceeds N"):
        validate_config(BanditConfig(n_arms=4, plays=5, budget=10.0, c_min=0.5))


def test_validate_config_rejects_cmin_one():
    with pytest.raises(ConfigError, match="c_min must be < 1"):
        validate_config(BanditConfig(n_arms=4, plays=2, budget=10.0, c_min=1.0))


@pytest.mark.parametrize(
    "kwargs,match",
    [
        (dict(n_arms=4, plays=0, budget=10.0, c_min=0.5), "K must be >= 1"),
        (dict(n_arms=4, plays=2, budget=0.0, c_min=0.5), "budget"),
        (dict(n_arms=4, plays=2, budget=10.0, c_min=0.0), "c_min"),
        (dict(n_arms=4, plays=2, budget=10.0, c_min=0.5, confidence=1.0), "confidence"),
        (dict(n_arms=4, plays=2, budget=10.0, c_min=0.5, confidence=0.0), "confidence"),
        (dict(n_arms=4, plays=2, budget=float("inf"), c_min=0.5), "budget"),
        (dict(n_arms=4, plays=2, budget=float("nan"), c_min=0.5), "budget"),
    ],
)
def test_validate_config_rejections(kwargs, match):
    with pytest.raises(ConfigError, match=match):
        validate_config(BanditConfig(**kwargs))


def test_stochastic_env_rejects_bad_means():
    with pytest.raises(ConfigError):
        StochasticEnv(mean_rewards=[0.0, 0.5], mean_costs=[0.5, 0.5], c_min=0.5)
    with pytest.raises(ConfigError):
        StochasticEnv(mean_rewards=[0.5, 0.5], mean_costs=[0.3, 0.5], c_min=0.5)


@pytest.mark.parametrize("field", ["mean_rewards", "mean_costs"])
def test_stochastic_env_rejects_nan_means(field):
    means = dict(mean_rewards=[0.5, 0.5], mean_costs=[0.6, 0.6])
    means[field] = [0.5, float("nan")]
    with pytest.raises(ConfigError, match="must lie in"):
        StochasticEnv(c_min=0.5, **means)


def test_stochastic_env_rejects_nan_concentration():
    with pytest.raises(ConfigError, match="beta_concentration"):
        StochasticEnv(mean_rewards=[0.5], mean_costs=[0.6], c_min=0.5,
                      beta_concentration=float("nan"))


@pytest.mark.parametrize("field", ["rewards", "costs"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_adversarial_env_rejects_non_finite_entries(field, value):
    matrices = dict(rewards=np.full((3, 2), 0.5), costs=np.full((3, 2), 0.6))
    matrices[field][1, 1] = value
    with pytest.raises(ConfigError, match="must lie in"):
        AdversarialEnv(**matrices)


def test_point_mass_rewards_all_one():
    env = StochasticEnv(mean_rewards=[1.0, 1.0, 1.0], mean_costs=[0.7, 0.7, 0.7], c_min=0.5)
    rng = episode_rng(0, 1)
    for _ in range(20):
        out = sample_round(env, [0, 1, 2], rng)
        assert np.all(out.rewards == 1.0)


def test_cost_point_mass_at_cmin():
    env = StochasticEnv(mean_rewards=[0.5, 0.5], mean_costs=[0.5, 0.5], c_min=0.5)
    rng = episode_rng(0, 2)
    for _ in range(20):
        out = sample_round(env, [0, 1], rng)
        assert np.all(out.costs == 0.5)


@pytest.mark.parametrize("family", [Family.BERNOULLI_SCALED, Family.BETA_SCALED])
def test_sample_means_converge(family):
    # law of large numbers at 1e5 draws
    env = StochasticEnv(mean_rewards=[0.7], mean_costs=[0.8], c_min=0.5, family=family)
    rng = episode_rng(42, 1)
    n = 10 ** 5
    rewards = np.empty(n)
    costs = np.empty(n)
    for i in range(n):
        out = sample_round(env, [0], rng)
        rewards[i] = out.rewards[0]
        costs[i] = out.costs[0]
    assert abs(rewards.mean() - 0.7) < 0.01
    assert abs(costs.mean() - 0.8) < 0.01
    assert rewards.min() >= 0.0 and rewards.max() <= 1.0
    assert costs.min() >= 0.5 and costs.max() <= 1.0


def test_sampled_supports_respected():
    env = StochasticEnv(mean_rewards=[0.2, 0.9], mean_costs=[0.6, 0.95], c_min=0.5,
                        family=Family.BETA_SCALED)
    rng = episode_rng(7, 1)
    for _ in range(500):
        out = sample_round(env, [0, 1], rng)
        assert np.all((out.rewards >= 0.0) & (out.rewards <= 1.0))
        assert np.all((out.costs >= 0.5) & (out.costs <= 1.0))


def test_sample_round_index_bounds():
    env = StochasticEnv(mean_rewards=[0.5], mean_costs=[0.6], c_min=0.5)
    with pytest.raises(IndexError):
        sample_round(env, [1], episode_rng(0, 1))


def test_lookup_constant_matrices():
    env = AdversarialEnv(rewards=np.full((5, 3), 0.5), costs=np.full((5, 3), 0.5))
    out = lookup_round(env, 3, [0, 2])
    assert out.arms == (0, 2)
    assert np.all(out.rewards == 0.5) and np.all(out.costs == 0.5)


def test_lookup_is_pure():
    rng = episode_rng(3, 1)
    env = AdversarialEnv(rewards=rng.random((6, 4)), costs=0.5 + 0.5 * rng.random((6, 4)))
    first = lookup_round(env, 2, [1, 3])
    second = lookup_round(env, 2, [1, 3])
    assert np.array_equal(first.rewards, second.rewards)
    assert np.array_equal(first.costs, second.costs)


def test_lookup_past_end_raises():
    env = AdversarialEnv(rewards=np.full((5, 2), 0.5), costs=np.full((5, 2), 0.6))
    with pytest.raises(SequenceExhausted, match="sequence exhausted"):
        lookup_round(env, 6, [0])


def test_adversarial_env_is_immutable():
    env = AdversarialEnv(rewards=np.full((4, 2), 0.5), costs=np.full((4, 2), 0.6))
    with pytest.raises(ValueError):
        env.rewards[0, 0] = 1.0


def test_default_t_max():
    assert default_t_max(10.0, 2, 0.5) == 11
    assert default_t_max(3.0, 1, 0.75) == 5


def test_fixed_seed_reproduces_draws():
    env = StochasticEnv(mean_rewards=[0.3, 0.6], mean_costs=[0.6, 0.7], c_min=0.5)
    a = [sample_round(env, [0, 1], episode_rng(9, 5)).rewards for _ in range(1)]
    b = [sample_round(env, [0, 1], episode_rng(9, 5)).rewards for _ in range(1)]
    assert np.array_equal(a[0], b[0])


def test_env_json_round_trip_stochastic():
    env = StochasticEnv(mean_rewards=[0.3, 0.6], mean_costs=[0.6, 0.7], c_min=0.5,
                        family=Family.BETA_SCALED, beta_concentration=2.0)
    doc = env_to_dict(env)
    assert doc["type"] == "stochastic"
    back = env_from_dict(doc)
    assert isinstance(back, StochasticEnv)
    assert np.array_equal(back.mean_rewards, env.mean_rewards)
    assert back.family is Family.BETA_SCALED
    assert back.beta_concentration == 2.0


def test_env_json_round_trip_adversarial():
    rng = episode_rng(11, 1)
    env = AdversarialEnv(rewards=rng.random((4, 3)), costs=0.5 + 0.5 * rng.random((4, 3)))
    back = env_from_dict(env_to_dict(env))
    assert isinstance(back, AdversarialEnv)
    assert np.array_equal(back.rewards, env.rewards)
    assert np.array_equal(back.costs, env.costs)


def test_env_from_dict_rejects_unknown_type():
    with pytest.raises(ConfigError):
        env_from_dict({"type": "nope"})
