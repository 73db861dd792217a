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
from budgetbandits import exp3, sampling
from budgetbandits.exp3 import Exp3State, Variant, play_lockstep
from budgetbandits.sampling import _check_simplex, dependent_rounding
from cap_reference import compute_cap, compute_probabilities
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


def assert_same_state(got, want):
    """Two generators' bit_generator.state dicts are equal, arrays included."""
    def same(a, b):
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(same(a[key], b[key]) for key in a)
        return np.array_equal(a, b)
    assert same(got.bit_generator.state, want.bit_generator.state)


def make_case(policy, kind, n, k, seed, skew=False, rounds=ROUNDS):
    rng = episode_rng(seed, 0)
    budget = rounds * k * 0.75
    t_max = int(math.ceil(budget / (k * C_MIN))) + 1
    horizon = rounds if policy == "exp3_pm" else None
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


@pytest.mark.parametrize("n", range(2, 13))
def test_probabilities_equal_cap_reference(n):
    """Every row of one _probabilities call, capped or not, maps to the bits
    of the numpy cap map, capped set included: K from 1 to N (K = N caps
    every arm), gamma = 1 beside small and large gammas."""
    rng = episode_rng(n, 77)
    states = []
    for k in range(1, n + 1):
        for gamma in [1.0] + rng.uniform(0.005, 1.0, 19).tolist():
            state = Exp3State(Variant.MB, n, k, gamma)
            state.log_weights = rng.normal(0.0, float(rng.uniform(0.5, 8.0)), n).tolist()
            states.append(state)
    capped_below_n = 0
    for state, (p, capped) in zip(states, exp3._probabilities(states)):
        cap = compute_cap(state.log_weights, state.gamma, state.plays, n)
        assert bits(p) == bits(compute_probabilities(cap, state.gamma, state.plays))
        assert sorted(capped) == cap.capped.tolist()
        capped_below_n += bool(capped) and state.plays < n
    assert capped_below_n >= (0 if n == 2 else 5)  # at N = 2 only K = N caps


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


def assert_rows_equal_reference(policy, cfg, env, seed, rows, gamma):
    """One pass of ``rows`` rows equals the reference episodes on the same
    streams, trace for trace and generator end state for end state; returns
    the pass's traces."""
    want_rngs = [episode_rng(seed, i + 1) for i in range(rows)]
    want = [reference_episode(policy, cfg, env, rng, gamma=gamma) for rng in want_rngs]
    got_rngs = [episode_rng(seed, i + 1) for i in range(rows)]
    got = play_lockstep(Variant(policy), cfg, env, got_rngs, gamma=gamma, record=True)
    for g, w, g_rng, w_rng in zip(got, want, got_rngs, want_rngs):
        assert_same_trace(g, w)
        assert_same_state(g_rng, w_rng)
    return got


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("kind", ENVIRONMENTS)
@pytest.mark.parametrize("rows", (1, 4))
def test_generators_end_where_the_reference_leaves_them(policy, kind, rows):
    seed = 91 + rows
    cfg, env = make_case(policy, kind, 8, 2, seed)
    assert_rows_equal_reference(policy, cfg, env, seed, rows,
                                0.3 if policy == "exp3_mb" else None)


@pytest.mark.parametrize("policy", POLICIES)
def test_long_adversarial_episode_crosses_blocks(policy):
    """About 300 rounds of N = 8 draw several blocks of uniforms."""
    seed = 23
    cfg, env = make_case(policy, "adversarial", 8, 2, seed, rounds=300)
    got = assert_rows_equal_reference(policy, cfg, env, seed, 3,
                                      0.3 if policy == "exp3_mb" else None)
    # replaying row 0's roundings with scalar draws counts its uniforms
    rng, used = episode_rng(seed, 1), [0]

    def draw():
        used[0] += 1
        return rng.random()

    for rec in got[0].rounds:
        assert tuple(dependent_rounding(cfg.plays, rec.probabilities.tolist(), draw)) == rec.arms
    assert used[0] > 3 * sampling.BLOCK


@pytest.mark.parametrize("block", (1, 2, 7))
@pytest.mark.parametrize("policy", POLICIES)
def test_small_blocks_equal_reference(policy, block, monkeypatch):
    monkeypatch.setattr(sampling, "BLOCK", block)
    seed = 41 + block
    cfg, env = make_case(policy, "adversarial", 9, 2, seed)
    assert_rows_equal_reference(policy, cfg, env, seed, 4,
                                0.3 if policy == "exp3_mb" else None)


NAN = float("nan")


@pytest.mark.parametrize("row", [
    [NAN, 0.5, 0.5, 1.0], [0.5, NAN, 0.5, 1.0], [0.5, 0.5, 1.0, NAN], [NAN] * 4,
    [0.5, 0.5, NAN, 1.0 + 1e-7],  # a NaN beside an in-tolerance entry
    [1.5, 0.5, 0.0, 0.0], [-0.5, 0.5, 1.0, 1.0],
    [0.5, 0.5, 0.5, 0.0], [0.5, 0.5, 0.5, 0.75], [float("inf"), 0.5, 0.5, 0.0],
], ids=lambda row: repr(row))
def test_start_check_rejects_bad_rows(row):
    with pytest.raises(ValueError):
        _check_simplex(row, 2)


def test_start_check_accepts_within_tolerance():
    _check_simplex([1.0 + 5e-7, 1.0 - 5e-7, -5e-7, 5e-7], 2)


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
    @pytest.mark.parametrize("rows", (1, 4, 5))
    def test_flat_exp_and_reshaped_row_sums(self, n, rows):
        # the engine exponentiates every row end to end in one flat array
        rng = episode_rng(n, rows + 1)
        lw = rng.normal(0.0, 6.0, (rows, n))
        shifted = (lw - lw.max(axis=1, keepdims=True)).ravel().tolist()
        w = np.exp(shifted)
        totals = np.add.reduce(w.reshape(-1, n), axis=1)
        for r in range(rows):
            one = np.exp(lw[r] - lw[r].max())
            assert bits(w[r * n:(r + 1) * n]) == bits(one)
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
