"""Episode runner, exact oracles, and regret aggregation over replications.

Replication i derives its own random stream from (base_seed, i + 1), stream
0 being reserved for one-off environment materialization, and results are
folded in replication order. The exp3 family plays a spec's replications as
the rows of one lockstep pass (exp3.play_lockstep), ucb_mb one by one.

The exact adversarial oracle evaluates subsets in lexicographic blocks. For a
block of m subsets it builds the (T_max + 1, m) matrix whose row 0 is the
budget and whose row t is round t's cost, each summed over the subset's arms
left to right (core.sum_in_order, as played rounds are summed). A subtract
accumulate down the rounds then yields the very remainders of the policies'
sequential subtraction; a round overdraws iff its remainder turns negative,
and the subset's gain is an add accumulate of the reward totals read just
before that round. The work buffers hold at most _BLOCK_CELLS cells each
and are allocated once per call, so memory does not grow with N choose K.
One subset is the same computation with a block of one (simulate_fixed_subset).

Budget sweeps use the same kernel the other way round. For an anytime spec
(ucb_mb, exp3_1_mb, and exp3_mb given gamma, on an environment that does not
depend on B) the episode at a budget is a prefix of the episode at any larger
budget: the same draws and decisions, up to the first round whose cost
exceeds that budget's own remainder. So each replication is played once, at
the largest budget, and its trace keeps every round's cost and reward total,
the terminating round's included. The checkpoint kernel (_checkpoints) builds
the (T + 1, m) matrix whose row 0 holds the m budgets and whose row t holds
round t's cost, subtract accumulates it down the rounds, takes each column's
first negative row as that budget's terminating round, and reads the gain and
the spend off add accumulates of the round totals just before it. These are
the operations the policies perform, so every budget's gain and stopping time
are bit for bit those of a separate run at that budget. Oracles, bounds and
environment checks still run per budget. exp3_pm plays a fixed horizon and
its oracle and bound ignore B, so on a stochastic or adversarial environment
its replications are played once and shared by every budget. Policies that
read B (exp3_mb tuned by g, exp3_pmb) and lower-bound instances, whose eps and
T_max follow B, rerun their replications for each budget.

applicable_bounds decides which bounds apply, for run reports, the CLI's
bounds command and sweeps alike.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Optional, Sequence, Union

import numpy as np

from . import bounds as bounds_mod
from .core import (
    AdversarialEnv,
    BanditConfig,
    ConfigError,
    EpisodeTrace,
    StochasticEnv,
    _check_arms,
    default_t_max,
    env_from_dict,
    env_to_dict,
    episode_rng,
    sum_in_order,
    validate_config,
)
from .exp3 import Variant, play_lockstep, tune_gamma_mb, warn_if_irrational
from .ucb import ucb_run_episode

POLICY_NAMES = ("ucb_mb", "exp3_mb", "exp3_1_mb", "exp3_pm", "exp3_pmb")

# the upper bound proved for each policy: Thm 1, Thm 2, Prop 1, Thm 4, Thm 5
# (Thm 3 is the lower bound); sweep's bound column reads it, and so does the
# violation fraction of the high-probability policies
_OWN_BOUND = {"ucb_mb": "thm1", "exp3_mb": "thm2", "exp3_1_mb": "prop1",
              "exp3_pm": "thm4", "exp3_pmb": "thm5"}
_HIGH_PROBABILITY = ("exp3_pm", "exp3_pmb")

ENV_STREAM = 0  # replication i uses stream i + 1

# float64 cells per work buffer of the exact oracle and of the checkpoint
# kernel: a block holds _BLOCK_CELLS // (T + 1) subsets or budgets, whatever
# N choose K or the number of budgets is
_BLOCK_CELLS = 1 << 14


@dataclass(frozen=True)
class PolicySpec:
    """Which policy to run; exp3_mb takes either gamma directly or a gain
    bound g ("oracle" tunes against the exact oracle gain)."""

    name: str
    gamma: Optional[float] = None
    g: Union[float, str, None] = None

    def __post_init__(self) -> None:
        if self.name not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.name!r}; expected one of {POLICY_NAMES}")
        if self.name == "exp3_mb":
            if (self.gamma is None) == (self.g is None):
                raise ConfigError("exp3_mb needs exactly one of gamma or g")
            if isinstance(self.g, str) and self.g != "oracle":
                raise ConfigError("g must be a number or the string 'oracle'")
        elif self.gamma is not None or self.g is not None:
            raise ConfigError(f"{self.name} takes neither gamma nor g; only exp3_mb does")


@dataclass(frozen=True)
class LowerBoundSpec:
    """Recipe for materializing a hard lower-bound instance at run time."""

    eps: Optional[float] = None  # None tunes eps to the config
    good_set: Optional[tuple[int, ...]] = None


Environment = Union[StochasticEnv, AdversarialEnv, LowerBoundSpec]


@dataclass(frozen=True)
class RunSpec:
    config: BanditConfig
    policy: PolicySpec
    environment: Environment
    replications: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        _seed(self.base_seed)


@dataclass(frozen=True)
class StochasticOracle:
    """Best fixed subset by bang-per-buck ratio with the paper's gain brackets.

    proxy_gain = (sum mu_r / sum mu_c) B sits between lower_bracket =
    (B / sum mu_c - 1) sum mu_r and upper_bracket = (sum mu_r / sum mu_c)(B+1).
    """

    a_star: tuple[int, ...]
    proxy_gain: float
    lower_bracket: float
    upper_bracket: float


def oracle_gain_stochastic(env: StochasticEnv, cfg: BanditConfig) -> StochasticOracle:
    a_star = bounds_mod.top_k_indices(env.ratios, cfg.plays)
    idx = list(a_star)
    s_r = float(env.mean_rewards[idx].sum())
    s_c = float(env.mean_costs[idx].sum())
    return StochasticOracle(
        a_star=a_star,
        proxy_gain=s_r / s_c * cfg.budget,
        lower_bracket=(cfg.budget / s_c - 1.0) * s_r,
        upper_bracket=s_r / s_c * (cfg.budget + 1.0),
    )


def simulate_fixed_subset(env: AdversarialEnv, arms: Sequence[int], budget: float) -> float:
    """Gain of playing one fixed subset until the budget is exhausted.

    Termination matches the policies exactly, including the floating-point
    formulation: the remainder is tracked by sequential subtraction and the
    round whose cost exceeds it is not credited.
    """
    subset = tuple(sorted(_check_arms(arms, env.n_arms)))
    if not subset:
        raise ConfigError("a subset needs at least one arm")
    return _best_subset(env, iter([subset]), 1, len(subset), budget)[1]


def _best_subset(env: AdversarialEnv, subsets: Iterator[tuple[int, ...]], count: int,
                 plays: int, budget: float) -> tuple[tuple[int, ...], float]:
    """Best of ``count`` sorted ``plays``-subsets, each played until the budget runs out.

    Ties go to the subset that comes first. See the module docstring for the
    block evaluation.
    """
    t_max = env.t_max
    block = min(count, max(1, _BLOCK_CELLS // (t_max + 1)))
    totals = np.empty((t_max + 1) * block)
    scratch = np.empty(t_max * block)
    overdrawn = np.empty(t_max * block, dtype=bool)
    best_arms: Optional[tuple[int, ...]] = None
    best_gain = -math.inf
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(subsets, block)),
                           dtype=np.intp)
        m = flat.size // plays
        if m == 0:
            break
        arms = flat.reshape(m, plays)
        cols = np.arange(m)
        # row t: the remainder after round t, by the policies' sequential subtraction
        remaining = totals[:(t_max + 1) * m].reshape(t_max + 1, m)
        remaining[0] = budget
        _round_totals(env.costs, arms, remaining[1:], scratch)
        stop = _first_overdraw(remaining, overdrawn[:t_max * m].reshape(t_max, m))
        if stop is None:
            raise ConfigError(
                "sequence exhausted before the budget; raise T_max above ceil(B/(K c_min))")
        # row t: the gain of the first t rounds; a subset gains row stop
        rows = int(stop.max()) + 1
        gains = totals[:rows * m].reshape(rows, m)
        gains[0] = 0.0
        _round_totals(env.rewards[:rows - 1], arms, gains[1:], scratch)
        np.add.accumulate(gains, axis=0, out=gains)
        block_gains = gains[stop, cols]
        i = int(block_gains.argmax())
        if block_gains[i] > best_gain:
            best_arms, best_gain = tuple(int(a) for a in arms[i]), float(block_gains[i])
    assert best_arms is not None
    return best_arms, best_gain


def _first_overdraw(remaining: np.ndarray, overdrawn: np.ndarray) -> Optional[np.ndarray]:
    """Each column's first overdrawing round, 0-based, or None if some column has none.

    ``remaining`` holds a budget in row 0 and round t's cost in row t; it is
    overwritten in place with the remainders of the policies' sequential
    subtraction. ``overdrawn`` is a boolean buffer shaped like ``remaining[1:]``.
    """
    np.subtract.accumulate(remaining, axis=0, out=remaining)
    # round t overdraws iff its cost exceeds the remainder before it, which
    # in IEEE arithmetic holds iff the remainder after it is negative; costs
    # are positive, so a column that ever overdraws does so in its last row
    over = np.less(remaining[1:], 0.0, out=overdrawn)
    if not over[-1].all():
        return None
    return over.argmax(axis=0)


def _checkpoints(costs: Sequence[float], rewards: Sequence[float], budgets: np.ndarray,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gain, stopping_time, spent) of each budget, read off one episode's round totals.

    ``costs`` and ``rewards`` are the round totals of an anytime episode
    played at a budget no smaller than any of ``budgets``, the terminating
    round included; each budget's episode is a prefix of it. See the module
    docstring for the evaluation.
    """
    cost = np.asarray(costs, dtype=np.float64)
    rows = cost.size + 1
    width = min(budgets.size, max(1, _BLOCK_CELLS // rows))
    remaining = np.empty((rows, width))
    overdrawn = np.empty((rows - 1, width), dtype=bool)
    stop = np.empty(budgets.size, dtype=np.intp)
    for lo in range(0, budgets.size, width):
        part = budgets[lo:lo + width]
        block = remaining[:, :part.size]
        block[0] = part
        block[1:] = cost[:, None]
        found = _first_overdraw(block, overdrawn[:, :part.size])
        if found is None:
            raise ValueError("a budget outlasts the episode's rounds")
        stop[lo:lo + part.size] = found
    # entry t: the total of the first t rounds; a budget's episode ends in
    # round stop + 1 and is credited and charged entry stop
    gain = np.add.accumulate(np.concatenate(([0.0], rewards)))
    spent = np.add.accumulate(np.concatenate(([0.0], cost)))
    return gain[stop], stop + 1, spent[stop]


def _round_totals(values: np.ndarray, arms: np.ndarray, out: np.ndarray,
                  scratch: np.ndarray) -> None:
    """out[t, j] = values[t, arms[j]].sum(), its columns added in order."""
    column = scratch[:out.size].reshape(out.shape)
    sum_in_order((np.take(values, a, axis=1, out=column, mode="wrap") for a in arms.T),
                 out=out)


def oracle_gain_adversarial(env: AdversarialEnv, cfg: BanditConfig,
                            mode: str = "exact") -> tuple[tuple[int, ...], float]:
    """Best fixed K-subset on the materialized sequences under the budget.

    "exact" enumerates all N-choose-K subsets (refused above 10^6 with a
    pointer at greedy mode); "greedy" ranks arms by sequence-total
    reward-to-cost ratio and simulates only the top-K subset (approximate).
    Ties go to the lexicographically smallest subset.
    """
    n, k = env.n_arms, cfg.plays
    if mode == "greedy":
        score = env.rewards.sum(axis=0) / env.costs.sum(axis=0)
        a = bounds_mod.top_k_indices(score, k)
        return a, simulate_fixed_subset(env, a, cfg.budget)
    if mode != "exact":
        raise ConfigError(f"unknown oracle mode {mode!r}")
    if math.comb(n, k) > bounds_mod.ENUMERATION_LIMIT:
        raise ConfigError(
            "N choose K exceeds the exact-oracle limit (10^6); use greedy mode")
    return _best_subset(env, itertools.combinations(range(n), k), math.comb(n, k), k,
                        cfg.budget)


def oracle_gain_fixed_horizon(env: AdversarialEnv, horizon: int,
                              plays: int) -> tuple[tuple[int, ...], float]:
    """Best fixed subset over exactly ``horizon`` rounds (no budget coupling).

    Subset gains are separable sums of per-arm column totals, so the optimum
    is the top-K columns.
    """
    if horizon > env.t_max:
        raise ConfigError("horizon exceeds the materialized sequence length")
    totals = env.rewards[:horizon].sum(axis=0)
    a = bounds_mod.top_k_indices(totals, plays)
    return a, float(totals[list(a)].sum())


def materialize_environment(spec: RunSpec) -> Union[StochasticEnv, AdversarialEnv]:
    """Resolve a LowerBoundSpec into a concrete instance (stream 0 of the seed)."""
    env = spec.environment
    if isinstance(env, LowerBoundSpec):
        cfg = spec.config
        eps = env.eps if env.eps is not None else bounds_mod.tuned_eps(
            cfg.budget, cfg.n_arms, cfg.plays, cfg.c_min)
        return bounds_mod.make_lower_bound_env(
            cfg.n_arms, cfg.plays, cfg.budget, cfg.c_min, eps,
            episode_rng(spec.base_seed, ENV_STREAM), good_set=env.good_set)
    return env


def _validate_env(cfg: BanditConfig, env: Union[StochasticEnv, AdversarialEnv],
                  policy: PolicySpec) -> None:
    if env.n_arms != cfg.n_arms:
        raise ConfigError("environment arm count does not match config")
    if policy.name == "exp3_pm" and cfg.horizon is None:
        raise ConfigError("exp3_pm needs a horizon")
    if isinstance(env, StochasticEnv):
        if abs(env.c_min - cfg.c_min) > 1e-12:
            raise ConfigError("environment c_min does not match config")
    else:
        if env.min_cost < cfg.c_min - 1e-12:
            raise ConfigError("adversarial costs fall below the configured c_min")
        if policy.name == "exp3_pm":
            if env.t_max < cfg.horizon:
                raise ConfigError("sequence shorter than the horizon")
        elif env.t_max < default_t_max(cfg.budget, cfg.plays, cfg.c_min):
            # every round costs at least K c_min, so the round after
            # ceil(B / (K c_min)) paid ones overdraws: neither an episode nor
            # the exact oracle can run out of rows
            raise ConfigError(
                "sequence may be exhausted before the budget; "
                "T_max must be at least ceil(B / (K c_min)) + 1")
    if policy.name == "ucb_mb" and not isinstance(env, StochasticEnv):
        raise ConfigError("ucb_mb runs on stochastic environments only")


@dataclass
class RegretReport:
    """Aggregated regret of one run specification."""

    policy: str
    oracle_gain: float
    oracle_arms: Optional[tuple[int, ...]]
    oracle_mode: str
    mean_gain: float
    mean_regret: float
    regret_std_error: float
    per_replication: list[tuple[float, int]]
    bound_values: dict = field(default_factory=dict)
    violation_fraction: Optional[float] = None
    oracle_brackets: Optional[tuple[float, float]] = None

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "oracle_gain": self.oracle_gain,
            "oracle_arms": list(self.oracle_arms) if self.oracle_arms is not None else None,
            "oracle_mode": self.oracle_mode,
            "oracle_brackets": list(self.oracle_brackets) if self.oracle_brackets else None,
            "mean_gain": self.mean_gain,
            "mean_regret": self.mean_regret,
            "regret_std_error": self.regret_std_error,
            "bound_values": dict(sorted(self.bound_values.items())),
            "violation_fraction": self.violation_fraction,
            "per_replication": [
                {"gain": g, "stopping_time": t} for g, t in self.per_replication
            ],
        }


def _oracle_for(spec: RunSpec, env: Union[StochasticEnv, AdversarialEnv],
                ) -> tuple[Optional[tuple[int, ...]], float, str, Optional[tuple[float, float]]]:
    cfg = spec.config
    if isinstance(env, StochasticEnv):
        if spec.policy.name == "exp3_pm":
            a = bounds_mod.top_k_indices(env.mean_rewards, cfg.plays)
            gain = float(env.mean_rewards[list(a)].sum()) * cfg.horizon
            return a, gain, "stochastic_horizon_proxy", None
        oracle = oracle_gain_stochastic(env, cfg)
        return (oracle.a_star, oracle.proxy_gain, "stochastic_proxy",
                (oracle.lower_bracket, oracle.upper_bracket))
    if spec.policy.name == "exp3_pm":
        a, gain = oracle_gain_fixed_horizon(env, cfg.horizon, cfg.plays)
        return a, gain, "exact_horizon", None
    mode = "exact" if math.comb(cfg.n_arms, cfg.plays) <= bounds_mod.ENUMERATION_LIMIT else "greedy"
    a, gain = oracle_gain_adversarial(env, cfg, mode=mode)
    return a, gain, mode, None


def _resolve_gamma(spec: RunSpec, oracle: Callable[[], tuple],
                   ) -> tuple[Optional[float], Optional[float]]:
    """(gamma, g used) for exp3_mb; (None, None) for everything else.
    ``oracle`` is called only when g is "oracle"."""
    policy = spec.policy
    if policy.name != "exp3_mb":
        return None, None
    if policy.gamma is not None:
        return policy.gamma, None
    g = oracle()[1] if policy.g == "oracle" else float(policy.g)
    if not g > 0.0:
        # e.g. an oracle gain of 0 at a budget below the cheapest first round
        raise ConfigError(f"tuning gamma needs a gain bound g > 0, got g = {g}")
    cfg = spec.config
    return tune_gamma_mb(g, cfg.budget, cfg.n_arms, cfg.plays, cfg.c_min), g


def applicable_bounds(spec: RunSpec, prep: Prepared) -> dict:
    """Every bound that applies to the spec's policy on the prepared instance.

    Keys are flat and sorted: the policy's own bound (_OWN_BOUND) with
    thm1_constituents or thm2_g beside it, and thm3_lower for the adversarial
    policies. A bound whose preconditions fail on this instance (zero gap,
    gain below B - K, a single arm, ...) is simply omitted. Run reports
    attach this dict and the CLI's bounds command prints it.
    """
    cfg = prep.cfg
    name = spec.policy.name
    out: dict = {}
    if name == "ucb_mb" and cfg.plays < cfg.n_arms:
        try:
            params = bounds_mod.StochasticBoundParams.from_env(prep.env, cfg.plays)
            thm1 = bounds_mod.thm1_bound(params, cfg.budget)
            out["thm1"] = thm1.value
            out["thm1_constituents"] = thm1.constituents
        except ValueError:
            pass
    elif name == "exp3_mb":
        g = prep.g_used if prep.g_used is not None else prep.oracle_gain
        if g > 0.0:
            out["thm2"] = bounds_mod.thm2_bound(g, cfg.budget, cfg.n_arms, cfg.plays, cfg.c_min)
            out["thm2_g"] = g
    elif name == "exp3_1_mb" and isinstance(prep.env, AdversarialEnv):
        if prep.oracle_gain >= cfg.budget - cfg.plays:
            out["prop1"] = bounds_mod.prop1_bound(prep.oracle_gain, cfg.budget, cfg.n_arms,
                                                  cfg.plays, cfg.c_min)
    elif name == "exp3_pm" and cfg.n_arms > 1:
        out["thm4"] = bounds_mod.thm4_bound(cfg.n_arms, cfg.plays, cfg.horizon, cfg.confidence)
    elif name == "exp3_pmb" and cfg.n_arms > 1:
        out["thm5"] = bounds_mod.thm5_bound(cfg.n_arms, cfg.plays, cfg.budget,
                                            cfg.c_min, cfg.confidence)
    if name != "ucb_mb" and cfg.plays < cfg.n_arms:
        out["thm3_lower"] = bounds_mod.thm3_lower_bound(
            cfg.budget, cfg.n_arms, cfg.plays, cfg.c_min).value
    return dict(sorted(out.items()))


@dataclass(frozen=True)
class Prepared:
    """What a spec's episodes, bounds and report need beyond the spec itself.

    ``oracle()`` returns the oracle's (arms, gain, mode, brackets) and
    computes them on its first call only, since on an adversarial
    environment that enumerates every K-subset and most policies' bounds
    never read it. prepare's checks leave it no way to fail.
    """

    cfg: BanditConfig
    env: Union[StochasticEnv, AdversarialEnv]
    gamma: Optional[float]
    g_used: Optional[float]
    oracle: Callable[[], tuple[Optional[tuple[int, ...]], float, str,
                               Optional[tuple[float, float]]]]

    @property
    def oracle_gain(self) -> float:
        return self.oracle()[1]


def prepare(spec: RunSpec) -> Prepared:
    """Check the spec, materialize its environment, and resolve its gamma.

    Raises ConfigError on a bad config, an environment that does not fit it,
    or a policy that cannot run on it. The oracle is left for its first
    reader (Prepared.oracle) unless tuning gamma needs it.
    """
    cfg = validate_config(spec.config)
    env = materialize_environment(spec)
    _validate_env(cfg, env, spec.policy)
    if spec.policy.name == "exp3_1_mb" and isinstance(env, AdversarialEnv):
        warn_if_irrational(env, cfg.plays)
    oracle = functools.cache(functools.partial(_oracle_for, spec, env))
    gamma, g_used = _resolve_gamma(spec, oracle)
    return Prepared(cfg, env, gamma, g_used, oracle)


def _episodes(spec: RunSpec, prep: Prepared, record: bool = False) -> list[EpisodeTrace]:
    """The spec's replications, in order, replication i on stream i + 1; the
    exp3 family plays them in lockstep, ucb_mb one after another."""
    rngs = [episode_rng(spec.base_seed, i + 1) for i in range(spec.replications)]
    if spec.policy.name == "ucb_mb":
        return [ucb_run_episode(prep.cfg, prep.env, rng, record=record) for rng in rngs]
    return play_lockstep(Variant(spec.policy.name), prep.cfg, prep.env, rngs, gamma=prep.gamma,
                         record=record)


def _play(spec: RunSpec, prep: Prepared, record: bool = False,
          traces_out: Optional[list[EpisodeTrace]] = None) -> list[tuple[float, int]]:
    """(gain, stopping_time) of each replication, in replication order."""
    traces = _episodes(spec, prep, record)
    if traces_out is not None:
        traces_out.extend(traces)
    return [(float(trace.gain), int(trace.stopping_time)) for trace in traces]


def _report(spec: RunSpec, prep: Prepared, per_rep: list[tuple[float, int]]) -> RegretReport:
    """Fold the replications' (gain, stopping_time) pairs into the spec's report."""
    gains = np.array([g for g, _ in per_rep])
    mean_gain = float(gains.mean())
    std_error = float(gains.std(ddof=1) / math.sqrt(len(gains))) if len(gains) > 1 else 0.0

    oracle_arms, oracle_gain, oracle_mode, brackets = prep.oracle()
    bound_values = applicable_bounds(spec, prep)
    violation = None
    own = _OWN_BOUND[spec.policy.name]
    if spec.policy.name in _HIGH_PROBABILITY and own in bound_values:
        violation = float(np.mean(oracle_gain - gains > bound_values[own]))

    return RegretReport(
        policy=spec.policy.name,
        oracle_gain=oracle_gain,
        oracle_arms=oracle_arms,
        oracle_mode=oracle_mode,
        mean_gain=mean_gain,
        mean_regret=oracle_gain - mean_gain,
        regret_std_error=std_error,
        per_replication=per_rep,
        bound_values=bound_values,
        violation_fraction=violation,
        oracle_brackets=brackets,
    )


def run_replications(spec: RunSpec, record: bool = False,
                     traces_out: Optional[list[EpisodeTrace]] = None) -> RegretReport:
    """Run the spec's replications and aggregate regret against the oracle.

    ``traces_out``, if given, receives every episode trace in replication
    order (pass record=True to keep per-round rows).
    """
    prep = prepare(spec)
    return _report(spec, prep, _play(spec, prep, record, traces_out))


def _is_anytime(spec: RunSpec) -> bool:
    """Whether the spec's episode at a budget is a prefix of its episode at
    any larger budget: neither the policy nor the environment reads B."""
    policy = spec.policy
    reads_budget = policy.name in ("exp3_pm", "exp3_pmb") or (
        policy.name == "exp3_mb" and policy.gamma is None)
    return not reads_budget and not isinstance(spec.environment, LowerBoundSpec)


def _ignores_budget(spec: RunSpec) -> bool:
    """Whether the spec's episodes are the same at every budget: the
    fixed-horizon policy on an environment that does not read B."""
    return spec.policy.name == "exp3_pm" and not isinstance(spec.environment, LowerBoundSpec)


def _budget_reports(spec: RunSpec, budgets: Sequence[float]) -> list[RegretReport]:
    """One report per budget, in the order given.

    Every budget is prepared, and so checked, as a run at it would be. An
    anytime spec runs each replication once, at the largest budget, and
    reads every budget's gain and stopping time off that episode's round
    totals (_checkpoints); a spec that ignores B plays its replications once
    for all budgets; any other spec plays them at each budget.
    """
    specs = [replace(spec, config=replace(spec.config, budget=float(b))) for b in budgets]
    preps = [prepare(sub) for sub in specs]
    if _is_anytime(spec):
        values = np.array([prep.cfg.budget for prep in preps])
        top = int(values.argmax())
        gains = np.empty((spec.replications, values.size))
        stops = np.empty((spec.replications, values.size), dtype=np.intp)
        for i, trace in enumerate(_episodes(specs[top], preps[top])):
            gains[i], stops[i], _ = _checkpoints(trace.round_costs, trace.round_rewards, values)
        per_reps = [list(zip(gains[:, j].tolist(), stops[:, j].tolist()))
                    for j in range(values.size)]
    elif _ignores_budget(spec):
        per_reps = [_play(specs[0], preps[0])] * len(specs)
    else:
        per_reps = [_play(sub, prep) for sub, prep in zip(specs, preps)]
    return [_report(sub, prep, per_rep) for sub, prep, per_rep in zip(specs, preps, per_reps)]


def sweep(spec: RunSpec, budgets: Sequence[float]) -> list[dict]:
    """Regret-versus-budget rows for the CSV sweep output; ``bound`` is the
    policy's own bound at that budget, None where it does not apply."""
    own = _OWN_BOUND[spec.policy.name]
    return [{
        "budget": float(budget),
        "policy": spec.policy.name,
        "mean_gain": report.mean_gain,
        "oracle_gain": report.oracle_gain,
        "mean_regret": report.mean_regret,
        "std_error": report.regret_std_error,
        "bound": report.bound_values.get(own),
    } for budget, report in zip(budgets, _budget_reports(spec, budgets))]


def run_spec_to_dict(spec: RunSpec) -> dict:
    cfg = spec.config
    env = spec.environment
    if isinstance(env, LowerBoundSpec):
        env_doc: dict = {"type": "lower_bound", "eps": env.eps,
                         "good_set": list(env.good_set) if env.good_set else None}
    else:
        env_doc = env_to_dict(env)
    policy: dict = {"name": spec.policy.name}
    if spec.policy.gamma is not None:
        policy["gamma"] = spec.policy.gamma
    if spec.policy.g is not None:
        policy["g"] = spec.policy.g
    return {
        "config": {
            "n_arms": cfg.n_arms, "plays": cfg.plays, "budget": cfg.budget,
            "c_min": cfg.c_min, "confidence": cfg.confidence, "horizon": cfg.horizon,
        },
        "policy": policy,
        "environment": env_doc,
        "replications": spec.replications,
        "base_seed": spec.base_seed,
    }


def _integer(value, name: str) -> int:
    """``value`` as an int: an integer, or a float with an integral value
    such as 4.0; anything else, a bool included, is a ConfigError."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{name} must be an integer, got {value!r}")


def _seed(value) -> int:
    """A base seed: read by _integer and at least 0."""
    seed = _integer(value, "base_seed")
    if seed < 0:
        raise ConfigError("base_seed must be >= 0")
    return seed


def _good_set(value) -> Optional[tuple[int, ...]]:
    """A lower-bound instance's good arms, each read by _integer; None if unset."""
    return tuple(_integer(a, "good_set entry") for a in value) if value else None


def lower_bound_env_from_dict(doc: dict,
                              seed: Optional[int] = None) -> tuple[AdversarialEnv, float]:
    """The lower-bound instance an lbenv config describes, and its eps; a
    given ``seed`` replaces base_seed. Drawn as materialize_environment draws it."""
    try:
        seed = _seed(doc.get("base_seed", 0) if seed is None else seed)
        n = _integer(doc["n_arms"], "n_arms")
        k = _integer(doc["plays"], "plays")
        budget = float(doc["budget"])
        c_min = float(doc["c_min"])
        good = _good_set(doc.get("good_set"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad lbenv config: {exc}") from exc
    eps = float(doc["eps"]) if doc.get("eps") is not None else bounds_mod.tuned_eps(
        budget, n, k, c_min)
    env = bounds_mod.make_lower_bound_env(n, k, budget, c_min, eps,
                                          episode_rng(seed, ENV_STREAM), good_set=good)
    return env, eps


def run_spec_from_dict(doc: dict) -> RunSpec:
    try:
        cfg_doc = doc["config"]
        horizon = cfg_doc.get("horizon")
        cfg = BanditConfig(
            n_arms=_integer(cfg_doc["n_arms"], "n_arms"),
            plays=_integer(cfg_doc["plays"], "plays"),
            budget=float(cfg_doc["budget"]),
            c_min=float(cfg_doc["c_min"]),
            confidence=float(cfg_doc.get("confidence", 0.1)),
            horizon=_integer(horizon, "horizon") if horizon is not None else None,
        )
        pol_doc = doc["policy"]
        policy = PolicySpec(
            name=str(pol_doc["name"]),
            gamma=float(pol_doc["gamma"]) if pol_doc.get("gamma") is not None else None,
            g=pol_doc.get("g"),
        )
        env_doc = doc["environment"]
        if env_doc.get("type") == "lower_bound":
            environment: Environment = LowerBoundSpec(
                eps=float(env_doc["eps"]) if env_doc.get("eps") is not None else None,
                good_set=_good_set(env_doc.get("good_set")),
            )
        else:
            environment = env_from_dict(env_doc)
        return RunSpec(
            config=validate_config(cfg),
            policy=policy,
            environment=environment,
            replications=_integer(doc.get("replications", 1), "replications"),
            base_seed=_seed(doc.get("base_seed", 0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad run specification: {exc}") from exc
