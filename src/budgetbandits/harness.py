"""Episode runner, exact oracles, and regret aggregation over replications.

Replications are embarrassingly parallel: replication i derives its own
random stream from (base_seed, i + 1), stream 0 being reserved for one-off
environment materialization, and results are folded in replication order, so
reports do not depend on scheduling.

The exact adversarial oracle evaluates subsets in lexicographic blocks. For a
block of m subsets it builds the (T_max + 1, m) matrix whose row 0 is the
budget and whose row t is round t's cost, each summed over the subset's arms
left to right (core.sum_in_order, as played rounds are summed). A subtract
accumulate down the rounds then yields the very remainders of the policies'
sequential subtraction; a round overdraws iff its remainder turns negative,
and the subset's gain is an add accumulate of the reward totals read just
before that round. The work buffers hold at most _ORACLE_CELLS cells each
and are allocated once per call, so memory does not grow with N choose K.
One subset is the same computation with a block of one (simulate_fixed_subset).
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence, Union

import numpy as np

from . import bounds as bounds_mod
from .core import (
    AdversarialEnv,
    BanditConfig,
    ConfigError,
    EpisodeTrace,
    StochasticEnv,
    default_t_max,
    env_from_dict,
    env_to_dict,
    episode_rng,
    sum_in_order,
    validate_config,
)
from .exp3 import (
    exp31mb_run,
    exp3mb_run_episode,
    exp3pm_run,
    exp3pmb_run,
    tune_gamma_mb,
    warn_if_irrational,
)
from .ucb import ucb_run_episode

POLICY_NAMES = ("ucb_mb", "exp3_mb", "exp3_1_mb", "exp3_pm", "exp3_pmb")

ENV_STREAM = 0  # replication i uses stream i + 1

# float64 cells per work buffer of the exact oracle: a block holds
# _ORACLE_CELLS // (T_max + 1) subsets, whatever N choose K is
_ORACLE_CELLS = 1 << 14


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
    workers: int = 1

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")


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
    subset = tuple(sorted(int(a) for a in arms))
    if not subset:
        raise ConfigError("a subset needs at least one arm")
    if any(not -env.n_arms <= a < env.n_arms for a in subset):
        raise IndexError("arm index out of range")
    return _best_subset(env, iter([subset]), 1, len(subset), budget)[1]


def _best_subset(env: AdversarialEnv, subsets: Iterator[tuple[int, ...]], count: int,
                 plays: int, budget: float) -> tuple[tuple[int, ...], float]:
    """Best of ``count`` sorted ``plays``-subsets, each played until the budget runs out.

    Ties go to the subset that comes first. See the module docstring for the
    block evaluation.
    """
    t_max = env.t_max
    block = min(count, max(1, _ORACLE_CELLS // (t_max + 1)))
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
        np.subtract.accumulate(remaining, axis=0, out=remaining)
        # round t overdraws iff its cost exceeds the remainder before it, which
        # in IEEE arithmetic holds iff the remainder after it is negative
        over = np.less(remaining[1:], 0.0, out=overdrawn[:t_max * m].reshape(t_max, m))
        stop = over.argmax(axis=0)  # first overdrawing round, 0-based
        if not over[stop, cols].all():
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
    if isinstance(env, StochasticEnv):
        if abs(env.c_min - cfg.c_min) > 1e-12:
            raise ConfigError("environment c_min does not match config")
    else:
        if env.min_cost < cfg.c_min - 1e-12:
            raise ConfigError("adversarial costs fall below the configured c_min")
        if policy.name == "exp3_pm":
            if cfg.horizon is None:
                raise ConfigError("exp3_pm needs a horizon")
            if env.t_max < cfg.horizon:
                raise ConfigError("sequence shorter than the horizon")
        elif env.t_max < default_t_max(cfg.budget, cfg.plays, cfg.c_min) - 1:
            raise ConfigError(
                "sequence may be exhausted before the budget; raise T_max")
    if policy.name == "ucb_mb" and not isinstance(env, StochasticEnv):
        raise ConfigError("ucb_mb runs on stochastic environments only")


def run_episode(policy: PolicySpec, cfg: BanditConfig,
                env: Union[StochasticEnv, AdversarialEnv],
                rng: np.random.Generator, record: bool = False,
                gamma: Optional[float] = None,
                oracle_arms: Optional[Sequence[int]] = None) -> EpisodeTrace:
    """Run a single episode of the given policy (gamma already resolved)."""
    if policy.name == "ucb_mb":
        return ucb_run_episode(cfg, env, rng, oracle_arms=oracle_arms, record=record)
    if policy.name == "exp3_mb":
        return exp3mb_run_episode(cfg, env, rng, gamma=gamma, record=record)
    if policy.name == "exp3_1_mb":
        return exp31mb_run(cfg, env, rng, record=record)
    if policy.name == "exp3_pm":
        return exp3pm_run(cfg, env, rng, record=record)
    if policy.name == "exp3_pmb":
        return exp3pmb_run(cfg, env, rng, record=record)
    raise ConfigError(f"unknown policy {policy.name!r}")


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
            if cfg.horizon is None:
                raise ConfigError("exp3_pm needs a horizon")
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


def _resolve_gamma(spec: RunSpec, oracle_gain: float) -> tuple[Optional[float], Optional[float]]:
    """(gamma, g used) for exp3_mb; (None, None) for everything else."""
    policy = spec.policy
    if policy.name != "exp3_mb":
        return None, None
    if policy.gamma is not None:
        return policy.gamma, None
    g = oracle_gain if policy.g == "oracle" else float(policy.g)
    cfg = spec.config
    return tune_gamma_mb(g, cfg.budget, cfg.n_arms, cfg.plays, cfg.c_min), g


def _attach_bounds(spec: RunSpec, env, oracle_gain: float, g_used: Optional[float]) -> dict:
    """Every applicable bound; a bound whose preconditions fail on this
    instance (zero gap, gain below B - K, ...) is simply omitted."""
    cfg = spec.config
    name = spec.policy.name
    out: dict = {}
    if name == "ucb_mb" and cfg.plays < cfg.n_arms:
        try:
            params = bounds_mod.StochasticBoundParams.from_env(env, cfg.plays)
            thm1 = bounds_mod.thm1_bound(params, cfg.budget)
            out["thm1"] = thm1.value
            out["thm1_constituents"] = thm1.constituents
        except ValueError:
            pass
    elif name == "exp3_mb":
        g = g_used if g_used is not None else oracle_gain
        if g > 0.0:
            out["thm2"] = bounds_mod.thm2_bound(g, cfg.budget, cfg.n_arms, cfg.plays, cfg.c_min)
            out["thm2_g"] = g
    elif name == "exp3_1_mb" and isinstance(env, AdversarialEnv):
        if oracle_gain >= cfg.budget - cfg.plays:
            out["prop1"] = bounds_mod.prop1_bound(oracle_gain, cfg.budget, cfg.n_arms,
                                                  cfg.plays, cfg.c_min)
    elif name == "exp3_pm":
        out["thm4"] = bounds_mod.thm4_bound(cfg.n_arms, cfg.plays, cfg.horizon, cfg.confidence)
    elif name == "exp3_pmb":
        out["thm5"] = bounds_mod.thm5_bound(cfg.n_arms, cfg.plays, cfg.budget,
                                            cfg.c_min, cfg.confidence)
    if name != "ucb_mb" and cfg.plays < cfg.n_arms:
        out["thm3_lower"] = bounds_mod.thm3_lower_bound(
            cfg.budget, cfg.n_arms, cfg.plays, cfg.c_min).value
    return out


def run_replications(spec: RunSpec, record: bool = False,
                     traces_out: Optional[list[EpisodeTrace]] = None) -> RegretReport:
    """Run the spec's replications and aggregate regret against the oracle.

    ``traces_out``, if given, receives every episode trace in replication
    order (pass record=True to keep per-round rows).
    """
    cfg = validate_config(spec.config)
    env = materialize_environment(spec)
    _validate_env(cfg, env, spec.policy)
    if spec.policy.name == "exp3_1_mb" and isinstance(env, AdversarialEnv):
        warn_if_irrational(env, cfg.plays)

    a_star, oracle_gain, oracle_mode, brackets = _oracle_for(spec, env)
    gamma, g_used = _resolve_gamma(spec, oracle_gain)
    oracle_arms = a_star if spec.policy.name == "ucb_mb" else None

    def one(i: int) -> EpisodeTrace:
        rng = episode_rng(spec.base_seed, i + 1)
        return run_episode(spec.policy, cfg, env, rng, record=record,
                           gamma=gamma, oracle_arms=oracle_arms)

    if spec.workers > 1:
        with ThreadPoolExecutor(max_workers=spec.workers) as pool:
            traces = list(pool.map(one, range(spec.replications)))
    else:
        traces = [one(i) for i in range(spec.replications)]
    if traces_out is not None:
        traces_out.extend(traces)

    gains = np.array([t.gain for t in traces])
    per_rep = [(float(t.gain), int(t.stopping_time)) for t in traces]
    mean_gain = float(gains.mean())
    std_error = float(gains.std(ddof=1) / math.sqrt(len(gains))) if len(gains) > 1 else 0.0

    bound_values = _attach_bounds(spec, env, oracle_gain, g_used)
    violation = None
    key = {"exp3_pm": "thm4", "exp3_pmb": "thm5"}.get(spec.policy.name)
    if key is not None and key in bound_values:
        violation = float(np.mean(oracle_gain - gains > bound_values[key]))

    return RegretReport(
        policy=spec.policy.name,
        oracle_gain=oracle_gain,
        oracle_arms=a_star,
        oracle_mode=oracle_mode,
        mean_gain=mean_gain,
        mean_regret=oracle_gain - mean_gain,
        regret_std_error=std_error,
        per_replication=per_rep,
        bound_values=bound_values,
        violation_fraction=violation,
        oracle_brackets=brackets,
    )


def sweep(spec: RunSpec, budgets: Sequence[float]) -> list[dict]:
    """Regret-versus-budget rows for the CSV sweep output."""
    rows = []
    primary = {"ucb_mb": "thm1", "exp3_mb": "thm2", "exp3_1_mb": "prop1",
               "exp3_pm": "thm4", "exp3_pmb": "thm5"}[spec.policy.name]
    for budget in budgets:
        cfg = BanditConfig(spec.config.n_arms, spec.config.plays, float(budget),
                           spec.config.c_min, spec.config.confidence, spec.config.horizon)
        sub = RunSpec(cfg, spec.policy, spec.environment, spec.replications,
                      spec.base_seed, spec.workers)
        report = run_replications(sub)
        rows.append({
            "budget": float(budget),
            "policy": spec.policy.name,
            "mean_gain": report.mean_gain,
            "oracle_gain": report.oracle_gain,
            "mean_regret": report.mean_regret,
            "std_error": report.regret_std_error,
            "bound": report.bound_values.get(primary),
        })
    return rows


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
        "workers": spec.workers,
    }


def run_spec_from_dict(doc: dict) -> RunSpec:
    try:
        cfg_doc = doc["config"]
        cfg = BanditConfig(
            n_arms=int(cfg_doc["n_arms"]),
            plays=int(cfg_doc["plays"]),
            budget=float(cfg_doc["budget"]),
            c_min=float(cfg_doc["c_min"]),
            confidence=float(cfg_doc.get("confidence", 0.1)),
            horizon=int(cfg_doc["horizon"]) if cfg_doc.get("horizon") is not None else None,
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
                good_set=tuple(env_doc["good_set"]) if env_doc.get("good_set") else None,
            )
        else:
            environment = env_from_dict(env_doc)
        return RunSpec(
            config=validate_config(cfg),
            policy=policy,
            environment=environment,
            replications=int(doc.get("replications", 1)),
            base_seed=int(doc.get("base_seed", 0)),
            workers=int(doc.get("workers", 1)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"bad run specification: {exc}") from exc
