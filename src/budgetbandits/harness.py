"""Episode runner, exact oracles, and regret aggregation over replications.

Replication i derives its own random stream from (base_seed, i + 1), stream
0 being reserved for one-off environment materialization, and results are
folded in replication order. The exp3 family plays a spec's replications as
the rows of one lockstep pass (exp3.play_lockstep), ucb_mb one by one.

The exact adversarial oracle screens the subsets before it plays any. It
takes them in lexicographic chunks and, from every arm's prefix sums of costs
and of rewards ((T_max + 1, N) each), bisects per subset the first round at
which the budget minus the subset's prefix-summed spend falls below +tol and
the first at which it falls below -tol. The policies' sequential remainders
lie within tol of those differences, so the subset overdraws in a round
between the two, and its gain lies between the reward prefix sums just before
them, widened by tol. Each remainder or gain is B and at most T_max round
totals of K terms in [0, 1], summed either way with at most T_max + K
roundings, so the two ways differ by at most (T_max + K) eps (B + K T_max),
eps = 2^-52, to first order; tol is four times that. A floor, the best lower
bound seen so far, only rises; the subsets whose upper bound reaches it go,
in lexicographic order, to the block kernel below, and the chunks' winners
are compared with a strict >. Every skipped subset gains strictly less than
some other, so the oracle returns the very (arms, gain) of the kernel run
over all subsets, ties to the first, and every gain it returns is the
kernel's. A subset that may outlast the T_max rows always goes to the
kernel, which raises. On the N = 24, K = 4 lower-bound instance a handful of
the 10626 subsets reach the kernel. The prefix sums are as large as the
sequences; the chunk's vectors stay within _BLOCK_CELLS cells.

The block kernel (_best_subset) evaluates subsets in lexicographic blocks.
For a block of m subsets it builds the (T_max + 1, m) matrix whose row 0 is
the budget and whose row t is round t's cost, each summed over the subset's
arms left to right (core.sum_in_order, as played rounds are summed). A subtract
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
bounds command and sweeps alike. run_spec_from_dict and
lower_bound_env_from_dict only route a config's keys to the types, which
check them (see core), and one helper draws the lower-bound instance for
materialize_environment and lbenv alike.
"""

from __future__ import annotations

import functools
import itertools
import math
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
    _integer,
    _object,
    _real,
    _reading,
    default_t_max,
    env_from_dict,
    episode_rng,
    sum_in_order,
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
ENUMERATION_LIMIT = 10 ** 6  # subsets the exact oracle enumerates at most

# float64 cells per work buffer of the exact oracle and of the checkpoint
# kernel: a block holds _BLOCK_CELLS // (T + 1) subsets or budgets, whatever
# N choose K or the number of budgets is; the oracle's screen holds about
# 3 K + 12 cells per subset (its arms, their indices and prefix sums, and the
# bisection's vectors), so a chunk of _BLOCK_CELLS // (3 K + 12) subsets
# keeps them within _BLOCK_CELLS cells together
_BLOCK_CELLS = 1 << 14
_EPS = float(np.finfo(np.float64).eps)  # 2^-52


@dataclass(frozen=True)
class PolicySpec:
    """Which policy to run; exp3_mb takes either gamma in (0, 1] directly or
    a gain bound g, a finite number > 0 or "oracle" (which tunes against the
    exact oracle gain). Neither may be a bool."""

    name: str
    gamma: Optional[float] = None
    g: Union[float, str, None] = None

    def __post_init__(self) -> None:
        if self.name not in POLICY_NAMES:
            raise ConfigError(f"unknown policy {self.name!r}; expected one of {POLICY_NAMES}")
        if self.name != "exp3_mb":
            if self.gamma is not None or self.g is not None:
                raise ConfigError(f"{self.name} takes neither gamma nor g; only exp3_mb does")
        elif (self.gamma is None) == (self.g is None):
            raise ConfigError("exp3_mb needs exactly one of gamma or g")
        elif self.gamma is not None:
            gamma = _real(self.gamma, "gamma")
            if not 0.0 < gamma <= 1.0:  # written so that NaN fails
                raise ConfigError(f"gamma must be a number in (0, 1], got {self.gamma!r}")
            object.__setattr__(self, "gamma", gamma)
        elif self.g != "oracle" and not 0.0 < _real(self.g, "g") < math.inf:
            raise ConfigError(f"g must be 'oracle' or a finite number > 0, got {self.g!r}")


@dataclass(frozen=True)
class LowerBoundSpec:
    """Recipe for materializing a hard lower-bound instance at run time: eps
    in [0, 1/4] (0 makes every arm alike) or None to tune it to the config,
    and the good arms, read by _integer, or None to draw them; that they are
    K distinct arms in [0, N) is checked when the instance is drawn."""

    eps: Optional[float] = None
    good_set: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.eps is not None:
            eps = _real(self.eps, "eps")
            if not 0.0 <= eps <= 0.25:  # written so that NaN fails
                raise ConfigError(f"eps must lie in [0, 1/4], got {eps!r}")
            object.__setattr__(self, "eps", eps)
        if self.good_set is not None:
            good = tuple(_integer(a, "good_set entry") for a in self.good_set)
            object.__setattr__(self, "good_set", good or None)


@dataclass(frozen=True)
class RunSpec:
    config: BanditConfig
    policy: PolicySpec
    environment: Union[StochasticEnv, AdversarialEnv, LowerBoundSpec]
    replications: int = 1
    base_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "replications", _integer(self.replications, "replications", 1))
        object.__setattr__(self, "base_seed", _integer(self.base_seed, "base_seed", 0))


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


def _check_arms(arms: Sequence[int], n_arms: int) -> tuple[int, ...]:
    idx = tuple(int(a) for a in arms)
    if len(set(idx)) != len(idx):
        raise ValueError("arms must be distinct")
    if any(a < 0 or a >= n_arms for a in idx):
        raise IndexError("arm index out of range")
    return idx


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
    if math.comb(n, k) > ENUMERATION_LIMIT:
        raise ConfigError(
            "N choose K exceeds the exact-oracle limit (10^6); use greedy mode")
    return _screened_best_subset(env, k, cfg.budget)


def _screened_best_subset(env: AdversarialEnv, plays: int,
                          budget: float) -> tuple[tuple[int, ...], float]:
    """What _best_subset returns over every sorted ``plays``-subset, found by
    running it on the subsets the screen cannot rule out (module docstring)."""
    t_max, n = env.t_max, env.n_arms
    # how far a remainder or a gain summed from the prefix sums may lie from
    # the kernel's, with a margin of 4 (module docstring)
    tol = 4.0 * (t_max + plays) * _EPS * (budget + plays * t_max)
    spent, earned = _prefix_sums(env.costs), _prefix_sums(env.rewards)
    chunk = max(1, _BLOCK_CELLS // (3 * plays + 12))
    subsets = itertools.combinations(range(n), plays)
    floor = best_gain = -math.inf
    best_arms: Optional[tuple[int, ...]] = None
    while True:
        flat = np.fromiter(itertools.chain.from_iterable(itertools.islice(subsets, chunk)),
                           dtype=np.intp)
        m = flat.size // plays
        if m == 0:
            break
        arms = flat.reshape(m, plays)
        # rounds 1..T_max: the first whose remainder may be negative, the
        # first whose remainder surely is (T_max + 1: none); the subset's
        # overdraw lies between them, and it gains the rounds before it
        maybe = _first_below(spent, arms, budget, tol)
        # mostly the same round: bisect again only where it is not yet below -tol
        surely = maybe.copy()
        unsure = budget - _subset_totals(spent, arms, np.minimum(maybe, t_max)) >= -tol
        if unsure.any():
            surely[unsure] = _first_below(spent, arms[unsure], budget, -tol)
        lower = _subset_totals(earned, arms, maybe - 1) - tol
        upper = _subset_totals(earned, arms, surely - 1) + tol
        upper[surely > t_max] = math.inf  # it may outlast the rows: the kernel decides
        floor = max(floor, float(lower.max()))
        keep = arms[upper >= floor].tolist()
        if keep:
            chunk_arms, gain = _best_subset(env, iter(keep), len(keep), plays, budget)
            if gain > best_gain:
                best_arms, best_gain = chunk_arms, gain
    assert best_arms is not None
    return best_arms, best_gain


def _prefix_sums(values: np.ndarray) -> np.ndarray:
    """(T_max + 1, N): row t holds each arm's total over the first t rounds."""
    out = np.zeros((values.shape[0] + 1, values.shape[1]))
    np.add.accumulate(values, axis=0, out=out[1:])
    return out


def _subset_totals(prefix: np.ndarray, arms: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """prefix[rows[i], arms[i]].sum() for each subset i."""
    return sum_in_order(prefix.take(rows[:, None] * prefix.shape[1] + arms).T)


def _first_below(spent: np.ndarray, arms: np.ndarray, budget: float,
                 level: float) -> np.ndarray:
    """Each subset's first round t in 1..T_max at which budget minus its
    prefix-summed spend falls below ``level``, T_max + 1 if none does.

    That difference never rises with t, so a bisection finds the round.
    """
    t_max = spent.shape[0] - 1
    lo = np.ones(arms.shape[0], dtype=np.intp)
    hi = np.full(arms.shape[0], t_max + 1, dtype=np.intp)
    for _ in range(t_max.bit_length()):
        mid = np.minimum((lo + hi) >> 1, t_max)
        below = budget - _subset_totals(spent, arms, mid) < level
        hi = np.where(below, mid, hi)
        lo = np.where(below, lo, mid + 1)
    return hi


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
    if isinstance(spec.environment, LowerBoundSpec):
        return _lower_bound_instance(spec.config, spec.environment, spec.base_seed)[0]
    return spec.environment


def _lower_bound_instance(cfg: BanditConfig, spec: LowerBoundSpec,
                          seed: int) -> tuple[AdversarialEnv, float]:
    """The instance ``spec`` describes at ``cfg``, drawn from stream 0 of
    ``seed``, and its eps; what run and lbenv both draw."""
    good = spec.good_set
    if good is not None and not (len(set(good)) == len(good) == cfg.plays
                                 and all(0 <= a < cfg.n_arms for a in good)):
        raise ConfigError(f"good_set must hold K={cfg.plays} distinct arms in "
                          f"[0, {cfg.n_arms}), got {list(good)}")
    eps = spec.eps if spec.eps is not None else bounds_mod.tuned_eps(
        cfg.budget, cfg.n_arms, cfg.plays, cfg.c_min)
    rng = episode_rng(_integer(seed, "base_seed", 0), ENV_STREAM)
    env = bounds_mod.make_lower_bound_env(cfg.n_arms, cfg.plays, cfg.budget, cfg.c_min, eps,
                                          rng, good_set=good)
    return env, eps


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
    mode = "exact" if math.comb(cfg.n_arms, cfg.plays) <= ENUMERATION_LIMIT else "greedy"
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
    cfg = spec.config
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

    Raises ConfigError on an environment that does not fit the config, or a
    policy that cannot run on it. The oracle is left for its first reader
    (Prepared.oracle) unless tuning gamma needs it. exp3_1_mb warns on an
    adversarial instance that breaks the doubling trick's reward-covers-cost
    assumption.
    """
    prep = _prepare(spec, materialize_environment(spec))
    if spec.policy.name == "exp3_1_mb" and isinstance(prep.env, AdversarialEnv):
        warn_if_irrational(prep.env, spec.config.plays)
    return prep


def _prepare(spec: RunSpec, env: Union[StochasticEnv, AdversarialEnv]) -> Prepared:
    """prepare on the spec's materialized environment, without the warning."""
    _validate_env(spec.config, env, spec.policy)
    oracle = functools.cache(functools.partial(_oracle_for, spec, env))
    gamma, g_used = _resolve_gamma(spec, oracle)
    return Prepared(env, gamma, g_used, oracle)


def _episodes(spec: RunSpec, prep: Prepared, record: bool = False) -> list[EpisodeTrace]:
    """The spec's replications, in order, replication i on stream i + 1; the
    exp3 family plays them in lockstep, ucb_mb one after another."""
    rngs = [episode_rng(spec.base_seed, i + 1) for i in range(spec.replications)]
    if spec.policy.name == "ucb_mb":
        return [ucb_run_episode(spec.config, prep.env, rng, record=record) for rng in rngs]
    return play_lockstep(Variant(spec.policy.name), spec.config, prep.env, rngs, gamma=prep.gamma,
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

    Every budget is prepared, and so checked, as a run at it would be, but an
    environment that does not depend on B is materialized, and warned about,
    at the first budget only. An anytime spec runs each replication once, at
    the largest budget, and reads every budget's gain and stopping time off
    that episode's round totals (_checkpoints); a spec that ignores B plays
    its replications once for all budgets; any other spec plays them at each
    budget.
    """
    specs = [replace(spec, config=replace(spec.config, budget=float(b))) for b in budgets]
    preps = [prepare(specs[0])]
    preps += [prepare(sub) if isinstance(sub.environment, LowerBoundSpec)
              else _prepare(sub, preps[0].env) for sub in specs[1:]]
    if _is_anytime(spec):
        values = np.array([sub.config.budget for sub in specs])
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


def lower_bound_env_from_dict(doc: dict) -> tuple[AdversarialEnv, float]:
    """The lower-bound instance an lbenv config describes, and its eps,
    drawn as materialize_environment draws it; a fault is a ConfigError."""
    with _reading("lbenv config"):
        doc = _object(doc, "lbenv config")
        cfg = BanditConfig(n_arms=doc["n_arms"], plays=doc["plays"], budget=doc["budget"],
                           c_min=doc["c_min"])
        spec = LowerBoundSpec(eps=doc.get("eps"), good_set=doc.get("good_set"))
        seed = doc.get("base_seed", 0)
    return _lower_bound_instance(cfg, spec, seed)


def run_spec_from_dict(doc: dict) -> RunSpec:
    """The run specification a run config describes; a fault is a ConfigError."""
    with _reading("run specification"):
        doc = _object(doc, "run specification")
        cfg_doc, pol_doc, env_doc = (_object(doc[key], key)
                                     for key in ("config", "policy", "environment"))
        cfg = BanditConfig(
            n_arms=cfg_doc["n_arms"], plays=cfg_doc["plays"], budget=cfg_doc["budget"],
            c_min=cfg_doc["c_min"], confidence=cfg_doc.get("confidence", 0.1),
            horizon=cfg_doc.get("horizon"))
        policy = PolicySpec(name=pol_doc["name"], gamma=pol_doc.get("gamma"), g=pol_doc.get("g"))
        environment = (LowerBoundSpec(eps=env_doc.get("eps"), good_set=env_doc.get("good_set"))
                       if env_doc.get("type") == "lower_bound" else env_from_dict(env_doc))
        return RunSpec(cfg, policy, environment, replications=doc.get("replications", 1),
                       base_seed=doc.get("base_seed", 0))
