"""One-pass budget sweeps against separate runs at each budget.

Anytime specs play each replication once, at the largest budget, and read
every smaller budget off the episode's round totals; the results must be
those of a separate run at that budget, bit for bit.
"""

import warnings

import numpy as np
import pytest

from budgetbandits import (
    AdversarialEnv,
    BanditConfig,
    ConfigError,
    Family,
    LowerBoundSpec,
    PolicySpec,
    RunSpec,
    StochasticEnv,
    default_t_max,
    episode_rng,
    run_replications,
)
from budgetbandits import harness
from budgetbandits.serialize import dumps

N, K, C_MIN = 4, 2, 0.5
# unsorted, with a duplicate of the largest, and 0.75 below any first round's
# cost (K c_min = 1 for the adversarial policies, N c_min = 2 for ucb_mb)
BUDGETS = (40.0, 0.75, 12.5, 40.0, 7.0, 25.25)
TINY = 1


def stochastic(family):
    return StochasticEnv(mean_rewards=[0.9, 0.8, 0.6, 0.5], mean_costs=[0.5, 0.7, 0.6, 0.9],
                         c_min=C_MIN, family=family)


def adversarial(seed):
    rng = episode_rng(seed, 1)
    t_max = default_t_max(max(BUDGETS), K, C_MIN)
    # rewards cover costs, so the doubling trick's assumption holds
    return AdversarialEnv(rewards=0.7 + 0.3 * rng.random((t_max, N)),
                          costs=C_MIN + 0.2 * rng.random((t_max, N)))


ANYTIME = {
    "ucb_mb-bernoulli": (PolicySpec("ucb_mb"), stochastic(Family.BERNOULLI_SCALED)),
    "ucb_mb-beta": (PolicySpec("ucb_mb"), stochastic(Family.BETA_SCALED)),
    "exp3_mb-adversarial": (PolicySpec("exp3_mb", gamma=0.3), adversarial(61)),
    "exp3_mb-stochastic": (PolicySpec("exp3_mb", gamma=0.3), stochastic(Family.BETA_SCALED)),
    "exp3_1_mb-adversarial": (PolicySpec("exp3_1_mb"), adversarial(62)),
    "exp3_1_mb-stochastic": (PolicySpec("exp3_1_mb"), stochastic(Family.BERNOULLI_SCALED)),
}


def spec_at(policy, environment, budget, seed, replications=3):
    cfg = BanditConfig(n_arms=N, plays=K, budget=budget, c_min=C_MIN)
    return RunSpec(cfg, policy, environment, replications=replications, base_seed=seed)


def hexed(per_replication):
    return [(gain.hex(), t) for gain, t in per_replication]


@pytest.mark.parametrize("case", sorted(ANYTIME))
@pytest.mark.parametrize("seed", [3, 4])
def test_one_pass_reports_equal_separate_runs(case, seed):
    policy, environment = ANYTIME[case]
    spec = spec_at(policy, environment, BUDGETS[0], seed)
    assert harness._is_anytime(spec)
    reports = harness._budget_reports(spec, BUDGETS)
    assert len(reports) == len(BUDGETS)
    for budget, report in zip(BUDGETS, reports):
        alone = run_replications(spec_at(policy, environment, budget, seed))
        assert hexed(report.per_replication) == hexed(alone.per_replication)
        assert dumps(report.to_dict()) == dumps(alone.to_dict())
    assert reports[TINY].per_replication == [(0.0, 1)] * spec.replications


@pytest.mark.parametrize("case", sorted(ANYTIME))
def test_checkpoints_equal_separate_episodes(case):
    policy, environment = ANYTIME[case]
    budgets = np.array(BUDGETS)
    top = spec_at(policy, environment, max(BUDGETS), 5)
    prep = harness.prepare(top)
    for i, trace in enumerate(harness._episodes(top, prep)):
        assert len(trace.round_costs) == len(trace.round_rewards) == trace.stopping_time
        gains, stops, spent = harness._checkpoints(trace.round_costs, trace.round_rewards,
                                                   budgets)
        for j, budget in enumerate(BUDGETS):
            sub = spec_at(policy, environment, budget, 5)
            alone = harness._episodes(sub, harness.prepare(sub))[i]
            assert float(gains[j]).hex() == alone.gain.hex()
            assert int(stops[j]) == alone.stopping_time
            assert float(spent[j]).hex() == float(alone.budget_spent).hex()


def test_checkpoints_across_blocks(monkeypatch):
    # one budget per block: the columns are evaluated block by block
    policy, environment = ANYTIME["exp3_mb-adversarial"]
    top = spec_at(policy, environment, max(BUDGETS), 6, replications=1)
    trace, = harness._episodes(top, harness.prepare(top))
    budgets = np.array(BUDGETS)
    whole = harness._checkpoints(trace.round_costs, trace.round_rewards, budgets)
    monkeypatch.setattr(harness, "_BLOCK_CELLS", 1)
    blocked = harness._checkpoints(trace.round_costs, trace.round_rewards, budgets)
    for a, b in zip(whole, blocked):
        assert a.tolist() == b.tolist()


def test_checkpoints_reject_a_budget_beyond_the_episode():
    policy, environment = ANYTIME["exp3_mb-adversarial"]
    top = spec_at(policy, environment, 7.0, 7, replications=1)
    trace, = harness._episodes(top, harness.prepare(top))
    with pytest.raises(ValueError, match="outlasts"):
        harness._checkpoints(trace.round_costs, trace.round_rewards, np.array([7.0, 40.0]))


PER_BUDGET = {
    "exp3_mb-g": (PolicySpec("exp3_mb", g=20.0), adversarial(63)),
    "exp3_mb-oracle": (PolicySpec("exp3_mb", g="oracle"), adversarial(63)),
    "exp3_pmb": (PolicySpec("exp3_pmb"), adversarial(63)),
    "exp3_mb-gamma-lower_bound": (PolicySpec("exp3_mb", gamma=0.3), LowerBoundSpec(eps=0.1)),
    "exp3_1_mb-lower_bound": (PolicySpec("exp3_1_mb"), LowerBoundSpec(eps=0.1)),
}


def episode_budgets(monkeypatch, spec, budgets):
    """The budgets at which sweep plays its episodes, in order."""
    played = []
    original = harness._episodes

    def counting(spec, prep, *args, **kwargs):
        played.extend([spec.config.budget] * spec.replications)
        return original(spec, prep, *args, **kwargs)

    monkeypatch.setattr(harness, "_episodes", counting)
    harness.sweep(spec, budgets)
    return played


@pytest.mark.parametrize("case", sorted(ANYTIME))
def test_anytime_specs_play_once_at_the_largest_budget(monkeypatch, case):
    policy, environment = ANYTIME[case]
    spec = spec_at(policy, environment, 8.0, 1, replications=2)
    assert episode_budgets(monkeypatch, spec, (8.0, 16.0, 4.0)) == [16.0, 16.0]


@pytest.mark.parametrize("case", sorted(PER_BUDGET))
@pytest.mark.filterwarnings("ignore:.*reward-covers-cost")
def test_per_budget_specs_rerun_each_budget(monkeypatch, case):
    policy, environment = PER_BUDGET[case]
    spec = spec_at(policy, environment, 8.0, 1, replications=2)
    assert not harness._is_anytime(spec)
    played = episode_budgets(monkeypatch, spec, (8.0, 16.0, 4.0))
    assert played == [8.0, 8.0, 16.0, 16.0, 4.0, 4.0]


def fixed_horizon(environment, budget=8.0):
    cfg = BanditConfig(n_arms=N, plays=K, budget=budget, c_min=C_MIN, horizon=5)
    return RunSpec(cfg, PolicySpec("exp3_pm"), environment, replications=2, base_seed=1)


@pytest.mark.parametrize("environment", [adversarial(64), stochastic(Family.BETA_SCALED)],
                         ids=["adversarial", "stochastic"])
def test_fixed_horizon_policy_plays_once(monkeypatch, environment):
    # neither exp3_pm, its fixed-horizon oracle nor thm4 reads B
    spec = fixed_horizon(environment)
    assert not harness._is_anytime(spec)
    budgets = (8.0, 16.0, 4.0)
    assert episode_budgets(monkeypatch, spec, budgets) == [8.0, 8.0]
    monkeypatch.undo()
    for budget, report in zip(budgets, harness._budget_reports(spec, budgets)):
        alone = run_replications(fixed_horizon(environment, budget))
        assert dumps(report.to_dict()) == dumps(alone.to_dict())


def test_fixed_horizon_policy_reruns_each_budget_on_lower_bound_instances(monkeypatch):
    # the instance itself follows B
    spec = fixed_horizon(LowerBoundSpec(eps=0.1))
    assert episode_budgets(monkeypatch, spec, (8.0, 16.0)) == [8.0, 8.0, 16.0, 16.0]


def test_one_environment_warns_once():
    # rewards 0: every round breaks the doubling trick's reward-covers-cost
    # assumption, on the one environment of every budget
    t_max = default_t_max(max(BUDGETS), K, C_MIN)
    env = AdversarialEnv(rewards=np.zeros((t_max, N)),
                         costs=C_MIN + 0.5 * episode_rng(66, 1).random((t_max, N)))
    spec = spec_at(PolicySpec("exp3_1_mb"), env, 8.0, 1, replications=1)
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        harness.sweep(spec, (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0))
    assert len(seen) == 1 and "reward-covers-cost" in str(seen[0].message)


@pytest.mark.parametrize("budgets", [(8.0, -1.0), (8.0, float("nan"))])
def test_fixed_horizon_policy_checks_every_budget(budgets):
    with pytest.raises(ConfigError):
        harness.sweep(fixed_horizon(adversarial(64)), budgets)


def test_sweep_rows_follow_the_input_order():
    policy, environment = ANYTIME["exp3_mb-adversarial"]
    spec = spec_at(policy, environment, 8.0, 2)
    rows = harness.sweep(spec, BUDGETS)
    assert [row["budget"] for row in rows] == list(BUDGETS)
    assert rows[0] == rows[3]
    for budget, row in zip(BUDGETS, rows):
        alone = run_replications(spec_at(policy, environment, budget, 2))
        assert row["mean_gain"] == alone.mean_gain
        assert row["mean_regret"] == alone.mean_regret
        assert row["std_error"] == alone.regret_std_error
