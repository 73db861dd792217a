"""Closed-form regret-bound calculators and the hard-instance generator.

Every calculator is a pure function of the instance parameters. Natural
logarithms are used throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .core import AdversarialEnv, StochasticEnv, default_t_max

E = math.e


@dataclass(frozen=True)
class StochasticBoundParams:
    """Inputs to the stochastic regret bound.

    delta_min / delta_max are the smallest and largest bang-per-buck gap
    between the optimal K-subset and any other K-subset; opt_cost_sum and
    opt_reward_sum are the mean cost and reward totals of the optimal subset.
    """

    n_arms: int
    plays: int
    c_min: float
    delta_min: float
    delta_max: float
    opt_cost_sum: float
    opt_reward_sum: float

    def __post_init__(self) -> None:
        if self.delta_min <= 0.0:
            raise ValueError("delta_min must be > 0 (distinct optimal subset)")
        if self.delta_min > self.delta_max + 1e-12:
            raise ValueError("delta_min must not exceed delta_max")

    @classmethod
    def from_env(cls, env: StochasticEnv, plays: int) -> "StochasticBoundParams":
        ratios = env.ratios
        d_min, d_max = bang_per_buck_gaps(env, plays)
        a_star = top_k_indices(ratios, plays)
        return cls(
            n_arms=env.n_arms,
            plays=plays,
            c_min=env.c_min,
            delta_min=d_min,
            delta_max=d_max,
            opt_cost_sum=float(env.mean_costs[list(a_star)].sum()),
            opt_reward_sum=float(env.mean_rewards[list(a_star)].sum()),
        )


def top_k_indices(values: np.ndarray, k: int) -> tuple[int, ...]:
    """Indices of the k largest values, ties resolved toward lower indices."""
    order = np.lexsort((np.arange(values.shape[0]), -values))
    return tuple(sorted(int(i) for i in order[:k]))


def bang_per_buck_gaps(env: StochasticEnv, plays: int) -> tuple[float, float]:
    """(delta_min, delta_max) over all K-subsets of the bang-per-buck sums.

    The subset sums are separable, so with the ratios sorted in descending
    order s, the minimal gap is the single swap s[K-1] - s[K] and the maximal
    gap is top-K minus bottom-K. Tied ratios give a gap of exactly 0, which
    differences of subset sums would leave at rounding noise.
    """
    if plays == env.n_arms:
        raise ValueError("gaps undefined for K = N (only one subset)")
    s = np.sort(env.ratios)[::-1]
    top = float(s[:plays].sum())
    return float(s[plays - 1] - s[plays]), top - float(s[-plays:].sum())


@dataclass(frozen=True)
class BoundValue:
    """A bound together with the named sub-terms it was assembled from."""

    value: float
    constituents: dict


def thm1_bound(params: StochasticBoundParams, budget: float) -> BoundValue:
    """Logarithmic-in-budget regret bound of the confidence-bound policy.

    Intermediate constants
        gamma = (K+1)((delta_min + 2K(1 + 1/c_min)) / (c_min delta_min))^2,
        delta = 1 + K pi^2 / 3,
    stopping-time constants
        c1 = (2N/(K c_min)) [gamma (log(2 N gamma/(K c_min)) - 1) + delta],
        c2 = N K delta / S_c + 1,    c3 = N K gamma / S_c,
    with S_c / S_r the optimal subset's mean cost / reward sums, assemble

        value = S_r/S_c + S_r (c2 + c3 L) + N delta_max (gamma L + delta),
        L = log(2B/S_c + c1).
    """
    n, k, c = params.n_arms, params.plays, params.c_min
    s_c, s_r = params.opt_cost_sum, params.opt_reward_sum
    gamma_const = (k + 1) * ((params.delta_min + 2 * k * (1 + 1 / c)) / (c * params.delta_min)) ** 2
    delta_const = 1.0 + k * math.pi ** 2 / 3.0
    c1 = (2 * n / (k * c)) * (gamma_const * (math.log(2 * n * gamma_const / (k * c)) - 1.0) + delta_const)
    c2 = n * k * delta_const / s_c + 1.0
    c3 = n * k * gamma_const / s_c
    log_term = math.log(2.0 * budget / s_c + c1)
    term_ratio = s_r / s_c
    term_opt = s_r * (c2 + c3 * log_term)
    term_gap = n * params.delta_max * (gamma_const * log_term + delta_const)
    return BoundValue(
        value=term_ratio + term_opt + term_gap,
        constituents={
            "gamma_const": gamma_const,
            "delta_const": delta_const,
            "c1": c1,
            "c2": c2,
            "c3": c3,
            "log_term": log_term,
            "log_coefficient": s_r * c3 + n * params.delta_max * gamma_const,
            "term_ratio": term_ratio,
            "term_opt": term_opt,
            "term_gap": term_gap,
        },
    )


def thm2_bound(gain_bound: float, budget: float, n_arms: int, plays: int, c_min: float) -> float:
    """Budgeted adversarial regret bound from a gain bound g >= G_max:

    2.63 sqrt(1 + B/(g c_min)) sqrt(g N log(N/K)) + K.
    """
    if gain_bound <= 0.0:
        raise ValueError("gain bound must be > 0")
    return (2.63 * math.sqrt(1.0 + budget / (gain_bound * c_min))
            * math.sqrt(gain_bound * n_arms * math.log(n_arms / plays)) + plays)


def prop1_bound(g_max: float, budget: float, n_arms: int, plays: int, c_min: float) -> float:
    """Doubling-trick regret bound:

    8[(e-1)-(e-2)c] N/K + 2N log(N/K) + K
    + 8 sqrt([(e-1)-(e-2)c] (G_max - B + K) N log(N/K)).
    """
    phi = (E - 1.0) - (E - 2.0) * c_min
    radicand = phi * (g_max - budget + plays) * n_arms * math.log(n_arms / plays)
    if radicand < 0.0:
        raise ValueError("negative radicand: need G_max >= B - K")
    return (8.0 * phi * n_arms / plays + 2.0 * n_arms * math.log(n_arms / plays)
            + plays + 8.0 * math.sqrt(radicand))


class LowerBound(NamedTuple):
    value: float
    eps: float
    degenerate: bool


LOG43 = math.log(4.0 / 3.0)


def tuned_eps(budget: float, n_arms: int, plays: int, c_min: float) -> float:
    """Bias that maximizes the lower bound: min(1/4, ((1-K/N) c^1.5 / (4 sqrt(log 4/3))) sqrt(N/(BK)))."""
    return min(0.25, (1.0 - plays / n_arms) * c_min ** 1.5 / (4.0 * math.sqrt(LOG43))
               * math.sqrt(n_arms / (budget * plays)))


def thm3_lower_bound(budget: float, n_arms: int, plays: int, c_min: float,
                     eps: Optional[float] = None) -> LowerBound:
    """Adversarial regret lower bound.

    With ``eps`` given, evaluates the bias-parameterized form
        eps (B - BK/N - 2 B c^-1.5 eps sqrt(BK log(4/3) / N));
    otherwise returns the tuned closed form
        min(c^1.5 (1-K/N)^2 / (8 sqrt(log 4/3)) sqrt(NB/K), B(1-K/N)/8)
    at the tuned eps. K = N yields 0 with the degenerate flag set.
    """
    if plays == n_arms:
        return LowerBound(0.0, eps if eps is not None else 0.0, True)
    if eps is not None:
        if not 0.0 < eps <= 0.25:
            raise ValueError("eps must lie in (0, 1/4]")
        value = eps * (budget - budget * plays / n_arms
                       - 2.0 * budget * c_min ** -1.5 * eps
                       * math.sqrt(budget * plays * LOG43 / n_arms))
        return LowerBound(value, eps, False)
    frac = 1.0 - plays / n_arms
    branch_sqrt = c_min ** 1.5 * frac ** 2 / (8.0 * math.sqrt(LOG43)) \
        * math.sqrt(n_arms * budget / plays)
    branch_linear = budget * frac / 8.0
    return LowerBound(min(branch_sqrt, branch_linear),
                      tuned_eps(budget, n_arms, plays, c_min), False)


def thm4_bound(n_arms: int, plays: int, horizon: int, delta: float) -> float:
    """High-probability regret bound for the fixed-horizon variant:

    2 sqrt(5) sqrt(NKT log(N/K)) + 8 f log(NT/delta)
    + 2(1+K^2) sqrt(NT f log(NT/delta)),  f = (N-K)/(N-1).

    Exactly zero at K = N.
    """
    if n_arms == 1:
        raise ValueError("bound undefined for a single arm")
    f = (n_arms - plays) / (n_arms - 1)
    log_conf = math.log(n_arms * horizon / delta)
    return (2.0 * math.sqrt(5.0) * math.sqrt(n_arms * plays * horizon * math.log(n_arms / plays))
            + 8.0 * f * log_conf
            + 2.0 * (1.0 + plays ** 2) * math.sqrt(n_arms * horizon * f * log_conf))


def thm5_bound(n_arms: int, plays: int, budget: float, c_min: float, delta: float) -> float:
    """High-probability regret bound for the budgeted variant:

    2 sqrt(3) sqrt(NB(1-c)/c log(N/K)) + 4 sqrt(6) f log(NB/(Kc delta))
    + 2 sqrt(6)(1+K^2) sqrt(f NB/(Kc) log(NB/(Kc delta))),  f = (N-K)/(N-1).
    """
    if n_arms == 1:
        raise ValueError("bound undefined for a single arm")
    f = (n_arms - plays) / (n_arms - 1)
    log_conf = math.log(n_arms * budget / (plays * c_min * delta))
    return (2.0 * math.sqrt(3.0)
            * math.sqrt(n_arms * budget * (1.0 - c_min) / c_min * math.log(n_arms / plays))
            + 4.0 * math.sqrt(6.0) * f * log_conf
            + 2.0 * math.sqrt(6.0) * (1.0 + plays ** 2)
            * math.sqrt(f * n_arms * budget / (plays * c_min) * log_conf))


def make_lower_bound_env(n_arms: int, plays: int, budget: float, c_min: float,
                         eps: float, rng: np.random.Generator,
                         good_set: Optional[Sequence[int]] = None) -> AdversarialEnv:
    """Sample the hard instance behind the lower bound, fixed once (oblivious).

    A hidden K-subset of "good" arms draws rewards from {0, 1} with bias
    1/2 + eps and costs c_min with probability 1/2 + eps (else 1); every other
    arm draws rewards and costs uniformly from the same two-point supports.
    The sequence length is ceil(B/(K c_min)) + 1. ``eps = 0`` is allowed as a
    testing override and makes all arms exchangeable.
    """
    if not 0.0 <= eps <= 0.25:
        raise ValueError("eps must lie in (0, 1/4] (0 allowed for testing)")
    if good_set is None:
        good = np.sort(rng.choice(n_arms, size=plays, replace=False))
    else:
        good = np.asarray(sorted(int(i) for i in good_set), dtype=np.intp)
        if good.size != plays or np.unique(good).size != plays:
            raise ValueError("good_set must contain K distinct arms")
        if good.min() < 0 or good.max() >= n_arms:
            raise IndexError("good_set index out of range")
    t_max = default_t_max(budget, plays, c_min)
    bias = np.full(n_arms, 0.5)
    bias[good] = 0.5 + eps
    rewards = (rng.random((t_max, n_arms)) < bias).astype(np.float64)
    costs = np.where(rng.random((t_max, n_arms)) < bias, c_min, 1.0)
    return AdversarialEnv(rewards=rewards, costs=costs)
