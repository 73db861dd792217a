"""Problem configuration, reward/cost environments, and episode records.

An episode plays exactly ``plays`` distinct arms per round, observes each
played arm's reward in [0, 1] and cost in [c_min, 1], and pays costs out of a
budget. The round whose total cost exceeds the remaining budget terminates the
episode: its reward is not credited and its cost is not charged.

A stochastic round is drawn by draw_round, for ucb_mb's episodes, the exp3
engine's stochastic rows and sample_round alike. It returns the played arms'
rewards and costs as float lists. A Bernoulli round takes its 2K uniforms
from one generator call and compares them with per-arm probabilities that
StochasticEnv computes once; a Beta round makes one rng.beta call for the
rewards and one for the costs.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np


class ConfigError(ValueError):
    """Raised when a configuration violates a documented constraint."""


class SequenceExhausted(RuntimeError):
    """Raised when an adversarial sequence is shorter than the episode.

    This indicates a configuration bug: the sequence length must dominate the
    maximum stopping time ceil(B / (K * c_min)).
    """


@dataclass(frozen=True)
class BanditConfig:
    """Problem instance parameters.

    n_arms:     number of arms N.
    plays:      arms played per round, 1 <= K <= N.
    budget:     total cost budget B > 0.
    c_min:      lower edge of the cost support, 0 < c_min < 1.
    confidence: failure probability for high-probability policies, 0 < delta < 1.
    horizon:    fixed round count T (only used by the fixed-horizon policy).
    """

    n_arms: int
    plays: int
    budget: float
    c_min: float
    confidence: float = 0.1
    horizon: Optional[int] = None


def validate_config(cfg: BanditConfig) -> BanditConfig:
    """Return ``cfg`` unchanged if every invariant holds, else raise ConfigError."""
    if cfg.n_arms < 1:
        raise ConfigError("n_arms must be >= 1")
    if cfg.plays < 1:
        raise ConfigError("K must be >= 1")
    if cfg.plays > cfg.n_arms:
        raise ConfigError("K exceeds N")
    if not 0.0 < cfg.budget < math.inf:
        raise ConfigError("budget must be finite and > 0")
    if not 0.0 < cfg.c_min:
        raise ConfigError("c_min must be > 0")
    if not cfg.c_min < 1.0:
        raise ConfigError("c_min must be < 1")
    if not 0.0 < cfg.confidence < 1.0:
        raise ConfigError("confidence must lie in (0, 1)")
    if cfg.horizon is not None and cfg.horizon < 1:
        raise ConfigError("horizon must be >= 1 when given")
    return cfg


class Family(str, Enum):
    """Distribution family for stochastic environments."""

    BERNOULLI_SCALED = "bernoulli_scaled"
    BETA_SCALED = "beta_scaled"


@dataclass(frozen=True)
class StochasticEnv:
    """IID per-arm reward/cost distributions with fixed means.

    Rewards have support within [0, 1] and mean ``mean_rewards[i]``; costs have
    support within [c_min, 1] and mean ``mean_costs[i]``.

    BERNOULLI_SCALED draws rewards from {0, 1} and costs from {c_min, 1} with
    the matching means (zero variance at the support edges, which makes
    degenerate point-mass environments expressible). BETA_SCALED draws Beta
    variates affinely mapped onto the support with the same means; the shape
    concentration is ``beta_concentration``.
    """

    mean_rewards: np.ndarray
    mean_costs: np.ndarray
    c_min: float
    family: Family = Family.BERNOULLI_SCALED
    beta_concentration: float = 4.0
    # per arm as floats, the means of the reward and of the cost mapped from
    # [c_min, 1] onto [0, 1]: a Bernoulli draw's P(1), a Beta draw's mean
    _unit_reward_means: list = field(init=False, repr=False, compare=False)
    _unit_cost_means: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        mr = np.asarray(self.mean_rewards, dtype=np.float64)
        mc = np.asarray(self.mean_costs, dtype=np.float64)
        object.__setattr__(self, "mean_rewards", mr)
        object.__setattr__(self, "mean_costs", mc)
        object.__setattr__(self, "c_min", float(self.c_min))
        object.__setattr__(self, "family", Family(self.family))
        if mr.ndim != 1 or mc.shape != mr.shape:
            raise ConfigError("mean vectors must be 1-d and of equal length")
        if not 0.0 < self.c_min < 1.0:
            raise ConfigError("c_min must lie in (0, 1)")
        # written so that NaN fails every range check
        if not np.all((mr > 0.0) & (mr <= 1.0)):
            raise ConfigError("mean rewards must lie in (0, 1]")
        if not np.all((mc >= self.c_min - 1e-12) & (mc <= 1.0)):
            raise ConfigError("mean costs must lie in [c_min, 1]")
        if not self.beta_concentration > 0.0:
            raise ConfigError("beta_concentration must be > 0")
        mr.setflags(write=False)
        mc.setflags(write=False)
        object.__setattr__(self, "_unit_reward_means", mr.tolist())
        object.__setattr__(self, "_unit_cost_means",
                           ((mc - self.c_min) / (1.0 - self.c_min)).tolist())

    @property
    def n_arms(self) -> int:
        return self.mean_rewards.shape[0]

    @property
    def ratios(self) -> np.ndarray:
        """Bang-per-buck ratios mu_r / mu_c per arm."""
        return self.mean_rewards / self.mean_costs


@dataclass(frozen=True)
class AdversarialEnv:
    """Oblivious adversary: reward and cost sequences fixed before play.

    ``rewards`` and ``costs`` are (T_max, N) matrices; row t-1 holds round t.
    The matrices are frozen at construction and never mutated.
    """

    rewards: np.ndarray
    costs: np.ndarray

    def __post_init__(self) -> None:
        r = np.asarray(self.rewards, dtype=np.float64)
        c = np.asarray(self.costs, dtype=np.float64)
        object.__setattr__(self, "rewards", r)
        object.__setattr__(self, "costs", c)
        if r.ndim != 2 or r.shape != c.shape:
            raise ConfigError("reward and cost matrices must share a (T_max, N) shape")
        # written so that NaN fails every range check
        if not np.all((r >= 0.0) & (r <= 1.0)):
            raise ConfigError("rewards must lie in [0, 1]")
        if not np.all((c > 0.0) & (c <= 1.0)):
            raise ConfigError("costs must lie in (0, 1]")
        r.setflags(write=False)
        c.setflags(write=False)

    @property
    def n_arms(self) -> int:
        return self.rewards.shape[1]

    @property
    def t_max(self) -> int:
        return self.rewards.shape[0]

    @property
    def min_cost(self) -> float:
        return float(self.costs.min())


@dataclass(frozen=True)
class RoundOutcome:
    """Arms played in one round with their observed rewards and costs."""

    arms: tuple[int, ...]
    rewards: np.ndarray
    costs: np.ndarray

    @property
    def reward(self) -> float:
        return sum_in_order(self.rewards.tolist())

    @property
    def cost(self) -> float:
        return sum_in_order(self.costs.tolist())


def sum_in_order(terms: Iterable, out: Optional[np.ndarray] = None):
    """Add ``terms`` one at a time, first to last.

    Every round total, of a played round and of the oracles' fixed subsets
    alike, is summed over its arms (in the order played) this way, so equal
    rounds give equal totals bit for bit; numpy's ``sum`` turns pairwise from
    eight terms on. Without ``out`` the terms are floats and a float is
    returned; with it they are arrays, added element-wise into ``out``.
    """
    if out is None:
        total = 0.0
        for term in terms:
            total += term
        return total
    terms = iter(terms)
    np.copyto(out, next(terms))
    for term in terms:
        np.add(out, term, out=out)
    return out


@dataclass
class RoundRecord:
    """Per-round trace entry; probabilities is None for deterministic policies."""

    t: int
    arms: tuple[int, ...]
    rewards: np.ndarray
    costs: np.ndarray
    probabilities: Optional[np.ndarray]
    budget_remaining: float


@dataclass
class EpisodeTrace:
    """Outcome of one episode.

    gain sums rewards over rounds 1 .. stopping_time - 1; the terminating round
    is recorded (when recording is on) but neither credited nor charged.
    stopping_time is 0 while a budgeted episode is still running.
    ``round_costs`` and ``round_rewards`` hold the cost and reward total of
    every round of a budgeted episode, in order and the terminating round
    included, whether or not recording is on. ``extras`` carries
    policy-specific diagnostics such as epoch boundaries.
    """

    gain: float
    stopping_time: int
    budget_spent: float
    rounds: list[RoundRecord] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    round_costs: array = field(default_factory=lambda: array("d"))
    round_rewards: array = field(default_factory=lambda: array("d"))

    def play(self, t: int, cost: float, reward: float, remaining: float) -> float:
        """Charge round ``t``'s cost and reward totals against ``remaining``
        and return what is left.

        A round whose cost exceeds ``remaining`` ends the episode: it becomes
        the stopping time and is neither credited nor charged.
        """
        self.round_costs.append(cost)
        self.round_rewards.append(reward)
        if cost > remaining:
            self.stopping_time = t
        else:
            remaining -= cost
            self.budget_spent += cost
            self.gain += reward
        return remaining


def episode_rng(base_seed: int, stream: int) -> np.random.Generator:
    """Counter-based generator for stream ``stream`` of a seeded experiment.

    Streams derived from the same base seed are statistically independent, so
    replications can run concurrently and still reproduce bit-identically.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((base_seed, stream))))


def default_t_max(budget: float, plays: int, c_min: float) -> int:
    """Sequence length that cannot be exhausted before the budget: ceil(B/(K c_min)) + 1."""
    return int(math.ceil(budget / (plays * c_min))) + 1


def _check_arms(arms: Sequence[int], n_arms: int) -> tuple[int, ...]:
    idx = tuple(int(a) for a in arms)
    if len(set(idx)) != len(idx):
        raise ValueError("arms must be distinct")
    if any(a < 0 or a >= n_arms for a in idx):
        raise IndexError("arm index out of range")
    return idx


def sample_round(env: StochasticEnv, arms: Sequence[int], rng: np.random.Generator) -> RoundOutcome:
    """Draw one round of independent rewards and costs for the given arms."""
    idx = _check_arms(arms, env.n_arms)
    rewards, costs = draw_round(env, idx, rng)
    return RoundOutcome(idx, np.array(rewards), np.array(costs))


def draw_round(env: StochasticEnv, arms: Sequence[int], rng: np.random.Generator,
               ) -> tuple[list[float], list[float]]:
    """(rewards, costs) of the distinct, in-range ``arms``, in their order.

    Bernoulli rewards and costs come from one rng.random(2K) call, rewards
    from the first K uniforms and costs from the last K; value for value
    these are the uniforms of two rng.random(K) calls. Beta rewards and then
    costs each come from one rng.beta call over the arms with an interior
    mean.
    """
    if env.family is Family.BERNOULLI_SCALED:
        k = len(arms)
        u = rng.random(2 * k).tolist()
        # a cost's weight on 1 is the one that makes its mean mu_c on {c_min, 1}
        mr, q, c_min = env._unit_reward_means, env._unit_cost_means, env.c_min
        rewards, costs = [], []
        for x, y, i in zip(u, u[k:], arms):
            rewards.append(1.0 if x < mr[i] else 0.0)
            costs.append(1.0 if y < q[i] else c_min)
        return rewards, costs
    c_min = env.c_min
    a = np.asarray(arms, dtype=np.intp)
    rewards = _beta_on_unit(env.mean_rewards[a], env.beta_concentration, rng)
    frac = np.take(env._unit_cost_means, a)
    costs = c_min + (1.0 - c_min) * _beta_on_unit(frac, env.beta_concentration, rng)
    return rewards.tolist(), costs.tolist()


def _beta_on_unit(mean: np.ndarray, concentration: float, rng: np.random.Generator) -> np.ndarray:
    """Beta draws on [0, 1] with the given means; degenerate means are point masses."""
    out = np.asarray(mean, dtype=np.float64).copy()
    interior = (out > 0.0) & (out < 1.0)
    if np.any(interior):
        m = out[interior]
        out[interior] = rng.beta(m * concentration, (1.0 - m) * concentration)
    return out


def lookup_round(env: AdversarialEnv, t: int, arms: Sequence[int]) -> RoundOutcome:
    """Return the fixed row-t outcome for the given arms (1-based t, pure)."""
    if t < 1:
        raise ValueError("round index t is 1-based")
    if t > env.t_max:
        raise SequenceExhausted(
            f"sequence exhausted: round {t} exceeds T_max={env.t_max}"
        )
    idx = _check_arms(arms, env.n_arms)
    a = np.asarray(idx, dtype=np.intp)
    return RoundOutcome(idx, env.rewards[t - 1, a].copy(), env.costs[t - 1, a].copy())


def env_to_dict(env: StochasticEnv | AdversarialEnv) -> dict:
    """JSON-ready dict for an environment; matrices are row-major lists."""
    if isinstance(env, StochasticEnv):
        return {
            "type": "stochastic",
            "family": env.family.value,
            "mean_rewards": env.mean_rewards.tolist(),
            "mean_costs": env.mean_costs.tolist(),
            "c_min": env.c_min,
            "beta_concentration": env.beta_concentration,
        }
    if isinstance(env, AdversarialEnv):
        return {
            "type": "adversarial",
            "rewards": env.rewards.tolist(),
            "costs": env.costs.tolist(),
        }
    raise TypeError(f"not an environment: {type(env)!r}")


def env_from_dict(doc: dict) -> StochasticEnv | AdversarialEnv:
    """Inverse of :func:`env_to_dict`."""
    kind = doc.get("type")
    if kind == "stochastic":
        return StochasticEnv(
            mean_rewards=np.asarray(doc["mean_rewards"], dtype=np.float64),
            mean_costs=np.asarray(doc["mean_costs"], dtype=np.float64),
            c_min=float(doc["c_min"]),
            family=Family(doc.get("family", Family.BERNOULLI_SCALED.value)),
            beta_concentration=float(doc.get("beta_concentration", 4.0)),
        )
    if kind == "adversarial":
        return AdversarialEnv(
            rewards=np.asarray(doc["rewards"], dtype=np.float64),
            costs=np.asarray(doc["costs"], dtype=np.float64),
        )
    raise ConfigError(f"unknown environment type: {kind!r}")
