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
    exp3mb_run_episode,
    validate_config,
)
from budgetbandits.core import draw_round


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


def test_config_reads_its_own_fields():
    cfg = BanditConfig(n_arms=4.0, plays=2, budget=10, c_min=0.5, horizon=8.0)
    assert (cfg.n_arms, cfg.horizon, cfg.budget) == (4, 8, 10.0)
    assert [type(v) for v in (cfg.n_arms, cfg.horizon, cfg.budget)] == [int, int, float]


@pytest.mark.parametrize("budget", [True, "100"])
def test_config_refuses_a_budget_that_is_not_a_number(budget):
    with pytest.raises(ConfigError, match="budget must be a number"):
        BanditConfig(n_arms=4, plays=2, budget=budget, c_min=0.5)


def test_envs_refuse_entries_that_are_not_numbers():
    with pytest.raises(ConfigError, match="mean_rewards"):
        StochasticEnv(mean_rewards=[True, True, 0.7, 0.6], mean_costs=[0.6] * 4, c_min=0.5)
    with pytest.raises(ConfigError, match="rewards"):
        AdversarialEnv(rewards=[["0.5", "0.5"]] * 3, costs=[[0.6, 0.6]] * 3)


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
        rewards, _ = draw_round(env, [0, 1, 2], rng)
        assert rewards == [1.0, 1.0, 1.0]


def test_cost_point_mass_at_cmin():
    env = StochasticEnv(mean_rewards=[0.5, 0.5], mean_costs=[0.5, 0.5], c_min=0.5)
    rng = episode_rng(0, 2)
    for _ in range(20):
        _, costs = draw_round(env, [0, 1], rng)
        assert costs == [0.5, 0.5]


@pytest.mark.parametrize("family", [Family.BERNOULLI_SCALED, Family.BETA_SCALED])
def test_sample_means_converge(family):
    # law of large numbers at 1e5 draws
    env = StochasticEnv(mean_rewards=[0.7], mean_costs=[0.8], c_min=0.5, family=family)
    rng = episode_rng(42, 1)
    n = 10 ** 5
    rewards = np.empty(n)
    costs = np.empty(n)
    for i in range(n):
        [rewards[i]], [costs[i]] = draw_round(env, [0], rng)
    assert abs(rewards.mean() - 0.7) < 0.01
    assert abs(costs.mean() - 0.8) < 0.01
    assert rewards.min() >= 0.0 and rewards.max() <= 1.0
    assert costs.min() >= 0.5 and costs.max() <= 1.0


def test_sampled_supports_respected():
    env = StochasticEnv(mean_rewards=[0.2, 0.9], mean_costs=[0.6, 0.95], c_min=0.5,
                        family=Family.BETA_SCALED)
    rng = episode_rng(7, 1)
    for _ in range(500):
        rewards, costs = draw_round(env, [0, 1], rng)
        assert all(0.0 <= r <= 1.0 for r in rewards)
        assert all(0.5 <= c <= 1.0 for c in costs)


def test_episode_past_end_raises():
    # 5 rounds of cost 0.6 leave 7 of B = 10 unspent, so round 6 is read
    env = AdversarialEnv(rewards=np.full((5, 2), 0.5), costs=np.full((5, 2), 0.6))
    cfg = BanditConfig(n_arms=2, plays=1, budget=10.0, c_min=0.5)
    with pytest.raises(SequenceExhausted, match="round 6 exceeds T_max=5"):
        exp3mb_run_episode(cfg, env, episode_rng(0, 1), gamma=0.5)


def test_adversarial_env_is_immutable():
    env = AdversarialEnv(rewards=np.full((4, 2), 0.5), costs=np.full((4, 2), 0.6))
    with pytest.raises(ValueError):
        env.rewards[0, 0] = 1.0


def test_default_t_max():
    assert default_t_max(10.0, 2, 0.5) == 11
    assert default_t_max(3.0, 1, 0.75) == 5


def test_fixed_seed_reproduces_draws():
    env = StochasticEnv(mean_rewards=[0.3, 0.6], mean_costs=[0.6, 0.7], c_min=0.5)
    a = [draw_round(env, [0, 1], episode_rng(9, 5))[0] for _ in range(1)]
    b = [draw_round(env, [0, 1], episode_rng(9, 5))[0] for _ in range(1)]
    assert a[0] == b[0]


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
