"""Problem configuration, reward/cost environments, and episode records.

An episode plays exactly ``plays`` distinct arms per round, observes each
played arm's reward in [0, 1] and cost in [c_min, 1], and pays costs out of a
budget. The round whose total cost exceeds the remaining budget terminates the
episode: its reward is not credited and its cost is not charged.

A stochastic round is drawn by draw_round, for ucb_mb's episodes and the
exp3 engine's stochastic rows alike. It returns the played arms' rewards and
costs as float lists. A Bernoulli round takes its 2K uniforms from one
generator call and compares them with per-arm probabilities that
StochasticEnv computes once; a Beta round makes one rng.beta call for the
rewards and one for the costs.

The config types read and check their own fields when they are built:
counts by _integer, reals by _real, mean vectors and matrices by _reals, so
a bool, a string or an out-of-range value is a ConfigError in the library as
in the CLI. env_from_dict, like the harness's dict readers, only routes keys.
"""

from __future__ import annotations

import itertools
import math
import numbers
from array import array
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

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

    Counts are read by _integer and reals by _real, so a bool or a string is
    a ConfigError, and so is any value validate_config refuses.
    """

    n_arms: int
    plays: int
    budget: float
    c_min: float
    confidence: float = 0.1
    horizon: Optional[int] = None

    def __post_init__(self) -> None:
        counts = ("n_arms", "plays") if self.horizon is None else ("n_arms", "plays", "horizon")
        for name in counts:
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        for name in ("budget", "c_min", "confidence"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        validate_config(self)


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
        mr = _reals(self.mean_rewards, "mean_rewards")
        mc = _reals(self.mean_costs, "mean_costs")
        object.__setattr__(self, "mean_rewards", mr)
        object.__setattr__(self, "mean_costs", mc)
        object.__setattr__(self, "c_min", _real(self.c_min, "c_min"))
        object.__setattr__(self, "family", Family(self.family))
        object.__setattr__(self, "beta_concentration",
                           _real(self.beta_concentration, "beta_concentration"))
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
        r = _reals(self.rewards, "rewards")
        c = _reals(self.costs, "costs")
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


def _integer(value, name: str, least: Optional[int] = None) -> int:
    """``value`` as an int: an integer, or a float with an integral value
    such as 4.0, and at least ``least`` if given; anything else, a bool
    included, is a ConfigError."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            or isinstance(value, float) and value.is_integer()):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ConfigError(f"{name} must be >= {least}")
    return int(value)


def _real(value, name: str) -> float:
    """A config real as a float: an integer or a float, not a bool; anything
    else, a numeric string included, is a ConfigError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{name} must be a number, got {value!r}")


def _reals(value, name: str) -> np.ndarray:
    """A config vector or matrix as float64: integer or float entries only,
    so bools and strings are a ConfigError."""
    a = np.asarray(value)
    # an array's dtype tells; in lists numpy turns a bool beside numbers into
    # a number, so their entries are looked at one by one
    entries = () if isinstance(value, np.ndarray) else (value,)
    for _ in range(a.ndim):
        entries = itertools.chain.from_iterable(entries)
    if a.dtype.kind not in "iuf" or not {bool, np.bool_}.isdisjoint(map(type, entries)):
        raise ConfigError(f"{name} must hold integers or floats only")
    return a.astype(np.float64, copy=False)


def _object(value, name: str) -> dict:
    """A config section as a dict: a JSON array, string, number or null is a
    ConfigError."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a JSON object, got {type(value).__name__}")
    return value


@contextmanager
def _reading(what: str) -> Iterator[None]:
    """Turn a KeyError, TypeError or ValueError raised while ``what`` is read
    into a ConfigError."""
    try:
        yield
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {what}: {exc}") from exc


def env_from_dict(doc: dict) -> StochasticEnv | AdversarialEnv:
    """Inverse of :func:`env_to_dict`; a fault in ``doc`` is a ConfigError."""
    with _reading("environment"):
        kind = _object(doc, "environment").get("type")
        if kind == "stochastic":
            return StochasticEnv(
                mean_rewards=doc["mean_rewards"], mean_costs=doc["mean_costs"],
                c_min=doc["c_min"], family=doc.get("family", Family.BERNOULLI_SCALED),
                beta_concentration=doc.get("beta_concentration", 4.0))
        if kind == "adversarial":
            return AdversarialEnv(rewards=doc["rewards"], costs=doc["costs"])
    raise ConfigError(f"unknown environment type: {kind!r}")
