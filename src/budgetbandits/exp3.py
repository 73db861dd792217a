"""Adversarial policies: exponential weights with exactly K plays per round.

Four variants share one round engine (cap weights, map to probabilities, draw
K arms by dependent rounding, observe, estimate, reweight):

* budgeted   -- plays until the budget runs out; weight multiplier
  exp((K gamma / N)(rhat_i - chat_i)) for arms outside the capped set.
* doubling   -- budgeted play restarted in epochs with geometrically growing
  gain targets g_r and halving gamma_r, so no gain bound must be known ahead;
  its per-epoch subroutine reweights the *played* arms instead.
* high-probability, fixed horizon -- plays exactly T rounds, no costs; adds a
  per-arm confidence bonus alpha / (p_i sqrt(NT)) to the update.
* high-probability, budgeted      -- budgeted play with the cost term and a
  confidence bonus alpha sqrt(K c_min) / (p_i sqrt(NB)).

Weights are stored and updated in the log domain; see the sampling module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .core import (
    AdversarialEnv,
    BanditConfig,
    ConfigError,
    EpisodeTrace,
    RoundOutcome,
    RoundRecord,
    StochasticEnv,
    lookup_round,
    sample_round,
    validate_config,
)
from .sampling import (
    ProbabilityVector,
    WeightVector,
    compute_cap,
    compute_probabilities,
    dependent_rounding,
)

E = math.e


class Variant(str, Enum):
    MB = "mb"            # budgeted
    ONE_MB = "one_mb"    # doubling-trick epochs over the budgeted subroutine
    PM = "pm"            # high-probability, fixed horizon
    PMB = "pmb"          # high-probability, budgeted


@dataclass
class Exp3State:
    """Mutable policy state shared by all variants.

    gain_acc / loss_acc accumulate the importance-weighted reward and cost
    estimates Ghat_i / Lhat_i; sigma_acc accumulates the confidence widths of
    the high-probability variants. ``t`` is the global 1-based round counter
    (it keeps running across epoch restarts). ``conf_scale`` is the variant's
    per-round confidence factor (1/sqrt(NT) or sqrt(K c_min)/sqrt(NB)).
    """

    log_weights: np.ndarray
    gamma: float
    variant: Variant
    n_arms: int
    plays: int
    alpha: Optional[float] = None
    conf_scale: Optional[float] = None
    gain_acc: np.ndarray = field(default=None)  # type: ignore[assignment]
    loss_acc: np.ndarray = field(default=None)  # type: ignore[assignment]
    sigma_acc: np.ndarray = field(default=None)  # type: ignore[assignment]
    t: int = 1
    epoch: Optional[int] = None

    def __post_init__(self) -> None:
        n = self.n_arms
        if self.gain_acc is None:
            self.gain_acc = np.zeros(n)
        if self.loss_acc is None:
            self.loss_acc = np.zeros(n)
        if self.sigma_acc is None:
            self.sigma_acc = np.zeros(n)

    @property
    def weight_rate(self) -> float:
        """Multiplier of the estimate inside the weight exponent."""
        if self.variant in (Variant.MB, Variant.ONE_MB):
            return self.plays * self.gamma / self.n_arms
        return self.gamma * self.plays / (3.0 * self.n_arms)


def make_mb_state(cfg: BanditConfig, gamma: float) -> Exp3State:
    if not 0.0 < gamma <= 1.0:
        raise ConfigError("gamma must lie in (0, 1]")
    return Exp3State(
        log_weights=np.zeros(cfg.n_arms),
        gamma=gamma,
        variant=Variant.MB,
        n_arms=cfg.n_arms,
        plays=cfg.plays,
    )


def estimate(outcome: RoundOutcome, probabilities: ProbabilityVector) -> tuple[np.ndarray, np.ndarray]:
    """Importance-weighted estimates: x / p for played arms, zero elsewhere.

    Conditionally unbiased given the probabilities: each arm is included with
    probability p_i, so E[x_i / p_i * 1(played)] = x_i.
    """
    p = probabilities.p
    arms = np.asarray(outcome.arms, dtype=np.intp)
    if np.any(p[arms] <= 0.0):
        raise ValueError("played arm has zero inclusion probability")
    rhat = np.zeros(p.shape[0])
    chat = np.zeros(p.shape[0])
    rhat[arms] = outcome.rewards / p[arms]
    chat[arms] = outcome.costs / p[arms]
    return rhat, chat


def exp3mb_weight_update(state: Exp3State, rhat: np.ndarray, chat: np.ndarray,
                         capped: np.ndarray) -> Exp3State:
    """Budgeted rule: log w_i += (K gamma / N)(rhat_i - chat_i) for i outside the cap set."""
    step = state.weight_rate * (rhat - chat)
    if capped.size:
        step[capped] = 0.0
    state.log_weights += step
    return state


def _weight_update_played(state: Exp3State, rhat: np.ndarray, chat: np.ndarray,
                          arms: np.ndarray) -> None:
    # doubling-trick subroutine: reweight the played arms, capped or not
    rate = state.weight_rate
    state.log_weights[arms] += rate * (rhat[arms] - chat[arms])


def _weight_update_confidence(state: Exp3State, rhat: np.ndarray, chat: np.ndarray,
                              capped: np.ndarray, p: np.ndarray) -> None:
    # high-probability rule: every uncapped arm gets the confidence bonus
    bonus = state.alpha * state.conf_scale / p
    if state.variant is Variant.PM:
        step = state.weight_rate * (rhat + bonus)
    else:
        step = state.weight_rate * (rhat - chat + bonus)
    if capped.size:
        step[capped] = 0.0
    state.log_weights += step


def _observe(env: StochasticEnv | AdversarialEnv, t: int, arms: np.ndarray,
             rng: np.random.Generator) -> RoundOutcome:
    if isinstance(env, AdversarialEnv):
        return lookup_round(env, t, arms)
    return sample_round(env, arms, rng)


def exp3mb_round(state: Exp3State, env: StochasticEnv | AdversarialEnv, cfg: BanditConfig,
                 budget_remaining: Optional[float], rng: np.random.Generator,
                 ) -> tuple[RoundOutcome, ProbabilityVector, bool]:
    """Play one round; returns (outcome, probabilities, terminated).

    On termination (round cost exceeding the remaining budget) the state is
    left untouched: no weight update, no accumulator update, no time step.
    Passing ``budget_remaining=None`` disables the budget check (fixed-horizon
    variant).
    """
    cap = compute_cap(WeightVector(state.log_weights), state.gamma, state.plays, state.n_arms)
    probs = compute_probabilities(cap, state.gamma, state.plays)
    arms = dependent_rounding(state.plays, probs, rng)
    outcome = _observe(env, state.t, arms, rng)
    if budget_remaining is not None and outcome.cost > budget_remaining:
        return outcome, probs, True

    rhat, chat = estimate(outcome, probs)
    state.gain_acc += rhat
    if state.variant is Variant.PM:
        # costs exist in the environment but this variant never observes them
        chat = np.zeros_like(chat)
    else:
        state.loss_acc += chat
    if state.variant is Variant.MB:
        exp3mb_weight_update(state, rhat, chat, cap.capped)
    elif state.variant is Variant.ONE_MB:
        _weight_update_played(state, rhat, chat, np.asarray(arms, dtype=np.intp))
    else:
        state.sigma_acc += state.conf_scale / probs.p
        _weight_update_confidence(state, rhat, chat, cap.capped, probs.p)
    state.t += 1
    return outcome, probs, False


def tune_gamma_mb(gain_bound: float, budget: float, n_arms: int, plays: int,
                  c_min: float) -> float:
    """Exploration rate from a known upper bound g on the optimal gain.

    gamma = min(1, sqrt(N log(N/K) / (g (e-1) (1 + B/(g c_min))))).
    """
    if gain_bound <= 0.0:
        raise ValueError("gain bound must be > 0")
    if plays == n_arms:
        raise ConfigError("degenerate tuning for K = N, supply gamma manually")
    inner = n_arms * math.log(n_arms / plays) / (
        gain_bound * (E - 1.0) * (1.0 + budget / (gain_bound * c_min)))
    return min(1.0, math.sqrt(inner))


def epoch_threshold(epoch: int, n_arms: int, plays: int, c_min: float) -> tuple[float, float]:
    """Gain target g_r and exploration rate gamma_r of a doubling-trick epoch.

    g_r = N log(N/K) / ((e-1) - (e-2) c_min) * 4^r,  gamma_r = min(1, 2^-r).
    """
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    if plays == n_arms:
        raise ConfigError("degenerate schedule for K = N (log(N/K) = 0)")
    g_r = n_arms * math.log(n_arms / plays) / ((E - 1.0) - (E - 2.0) * c_min) * 4.0 ** epoch
    gamma_r = min(1.0, 2.0 ** -epoch)
    return g_r, gamma_r


def exp31mb_epoch_done(gain_acc: np.ndarray, loss_acc: np.ndarray, g_r: float,
                       gamma_r: float, n_arms: int, plays: int, c_min: float) -> bool:
    """Epoch ends once the best K-subset of (Ghat - Lhat) exceeds the target.

    The maximum of sum_{i in a}(Ghat_i - Lhat_i) over all K-subsets is the sum
    of the K largest entries, compared against g_r - N(1 - c_min)/(K gamma_r).
    """
    diff = gain_acc - loss_acc
    top = np.partition(diff, n_arms - plays)[n_arms - plays:]
    threshold = g_r - n_arms * (1.0 - c_min) / (plays * gamma_r)
    return float(top.sum()) > threshold


def exp3mb_run_episode(cfg: BanditConfig, env: StochasticEnv | AdversarialEnv,
                       rng: np.random.Generator, gamma: Optional[float] = None,
                       gain_bound: Optional[float] = None,
                       record: bool = True) -> EpisodeTrace:
    """Budgeted episode; supply gamma directly or a gain bound g to tune it."""
    validate_config(cfg)
    if gamma is None:
        if gain_bound is None:
            raise ConfigError("supply gamma or a gain bound g")
        gamma = tune_gamma_mb(gain_bound, cfg.budget, cfg.n_arms, cfg.plays, cfg.c_min)
    state = make_mb_state(cfg, gamma)
    trace = EpisodeTrace(0.0, 0, 0.0)
    _run_budgeted(state, cfg, env, rng, record, trace, cfg.budget)
    return trace


def _run_budgeted(state: Exp3State, cfg: BanditConfig, env, rng, record: bool,
                  trace: EpisodeTrace, remaining: float,
                  stop: Optional[Callable[[], bool]] = None) -> float:
    """Drive exp3mb_round, folding each round into ``trace``, until a round
    overdraws ``remaining`` (which sets the trace's stopping time) or ``stop``
    fires. Returns the remainder, so that epoch loops can resume.
    """
    while not trace.stopping_time:
        if stop is not None and stop():
            break
        t = state.t
        outcome, probs, _ = exp3mb_round(state, env, cfg, remaining, rng)
        remaining = trace.play(t, outcome, remaining, probs.p, record)
    return remaining


def exp31mb_run(cfg: BanditConfig, env: StochasticEnv | AdversarialEnv,
                rng: np.random.Generator, record: bool = True) -> EpisodeTrace:
    """Doubling-trick episode: epochs restart the budgeted subroutine.

    Each epoch r resets the weights to one and runs with gamma_r until the
    best-subset accumulator total passes g_r; the gain/loss accumulators carry
    across epochs. The budget check ends the episode exactly as in the plain
    budgeted variant. The trace's ``extras`` records epoch starts and the
    final accumulators.
    """
    validate_config(cfg)
    state = Exp3State(
        log_weights=np.zeros(cfg.n_arms),
        gamma=1.0,
        variant=Variant.ONE_MB,
        n_arms=cfg.n_arms,
        plays=cfg.plays,
        epoch=0,
    )
    trace = EpisodeTrace(0.0, 0, 0.0)
    remaining = cfg.budget
    epoch_starts: list[tuple[int, int]] = []
    epoch = 0
    while True:
        g_r, gamma_r = epoch_threshold(epoch, cfg.n_arms, cfg.plays, cfg.c_min)
        state.gamma = gamma_r
        state.epoch = epoch
        state.log_weights[:] = 0.0
        epoch_starts.append((epoch, state.t))

        def epoch_over() -> bool:
            return exp31mb_epoch_done(state.gain_acc, state.loss_acc, g_r, gamma_r,
                                      cfg.n_arms, cfg.plays, cfg.c_min)

        remaining = _run_budgeted(state, cfg, env, rng, record, trace, remaining, epoch_over)
        if trace.stopping_time:
            trace.extras = {
                "epoch_starts": epoch_starts,
                "epochs_started": epoch + 1,
                "epochs_completed": epoch,
                "gain_acc": state.gain_acc.copy(),
                "loss_acc": state.loss_acc.copy(),
            }
            return trace
        epoch += 1


@dataclass(frozen=True)
class HighProbParams:
    """Initialization and update parameters of a high-probability variant."""

    variant: Variant
    alpha: float
    gamma: float
    log_w_init: float
    sigma_init: float
    conf_scale: float


def exp3pm_parameters(cfg: BanditConfig) -> HighProbParams:
    """Fixed-horizon tuning.

    alpha = 2 sqrt(((N-K)/(N-1)) log(NT/delta)),
    gamma = min(3/5, (3/sqrt(5)) sqrt(N log(N/K) / (K T))),
    w_i(1) = exp(alpha gamma K^2 sqrt(T/N) / 3), sigma_i(1) = K sqrt(NT),
    per-round confidence increment 1 / (p_i sqrt(NT)).

    K = N degenerates to forced uniform play: alpha = 0, gamma = 1.
    """
    validate_config(cfg)
    n, k, delta = cfg.n_arms, cfg.plays, cfg.confidence
    if cfg.horizon is None or cfg.horizon < 2:
        raise ConfigError("fixed-horizon variant needs horizon T >= 2")
    t = cfg.horizon
    if k == n:
        alpha, gamma = 0.0, 1.0
    else:
        alpha = 2.0 * math.sqrt((n - k) / (n - 1) * math.log(n * t / delta))
        gamma = min(3.0 / 5.0, 3.0 / math.sqrt(5.0) * math.sqrt(n * math.log(n / k) / (k * t)))
    conf_scale = 1.0 / math.sqrt(n * t)
    log_w_init = alpha * gamma * k * k * math.sqrt(t / n) / 3.0
    sigma_init = k * math.sqrt(n * t)
    return HighProbParams(Variant.PM, alpha, gamma, log_w_init, sigma_init, conf_scale)


def exp3pmb_parameters(cfg: BanditConfig) -> HighProbParams:
    """Budgeted high-probability tuning.

    alpha = 2 sqrt(6) sqrt(((N-K)/(N-1)) log(NB/(K c_min delta))),
    gamma = min((1 + (2/3)(1-c_min)/c_min)^-1,
                sqrt(3 N log(N/K) / ((G_max - B)(1 + 2(1-c_min)/(3 c_min)))))
    with the substitution G_max = B / c_min (so G_max - B = B(1-c_min)/c_min;
    at c_min = 1 the second branch is vacuous and gamma = 1),
    w_i(1) = exp(alpha gamma K^2 sqrt(B/(N K c_min)) / 3),
    sigma_i(1) = K sqrt(NB/(K c_min)), increment sqrt(K c_min)/(p_i sqrt(NB)).
    """
    validate_config(cfg)
    n, k, b, c, delta = cfg.n_arms, cfg.plays, cfg.budget, cfg.c_min, cfg.confidence
    if k == n:
        alpha, gamma = 0.0, 1.0
    else:
        alpha = 2.0 * math.sqrt(6.0) * math.sqrt((n - k) / (n - 1) * math.log(n * b / (k * c * delta)))
        slack = 1.0 + 2.0 * (1.0 - c) / (3.0 * c)
        gap = b / c - b  # G_max - B under G_max = B / c_min
        first = 1.0 / slack
        second = math.inf if gap <= 0.0 else math.sqrt(3.0 * n * math.log(n / k) / (gap * slack))
        gamma = min(first, second)
    conf_scale = math.sqrt(k * c) / math.sqrt(n * b)
    log_w_init = alpha * gamma * k * k * math.sqrt(b / (n * k * c)) / 3.0
    sigma_init = k * math.sqrt(n * b / (k * c))
    return HighProbParams(Variant.PMB, alpha, gamma, log_w_init, sigma_init, conf_scale)


def _make_high_prob_state(cfg: BanditConfig, params: HighProbParams) -> Exp3State:
    n = cfg.n_arms
    return Exp3State(
        log_weights=np.full(n, params.log_w_init),
        gamma=params.gamma,
        variant=params.variant,
        n_arms=n,
        plays=cfg.plays,
        alpha=params.alpha,
        conf_scale=params.conf_scale,
        sigma_acc=np.full(n, params.sigma_init),
    )


def exp3pm_run(cfg: BanditConfig, env: StochasticEnv | AdversarialEnv,
               rng: np.random.Generator, record: bool = True) -> EpisodeTrace:
    """Fixed-horizon episode: exactly T rounds, costs never observed or paid.

    The trace reports stopping_time = T + 1 so the credited range 1..T matches
    the budgeted convention; budget_spent stays zero.
    """
    params = exp3pm_parameters(cfg)
    state = _make_high_prob_state(cfg, params)
    records: list[RoundRecord] = []
    gain = 0.0
    for _ in range(cfg.horizon):
        t = state.t
        outcome, probs, _ = exp3mb_round(state, env, cfg, None, rng)
        gain += outcome.reward
        if record:
            records.append(RoundRecord(t, outcome.arms, outcome.rewards,
                                       outcome.costs, probs.p, 0.0))
    return EpisodeTrace(gain, cfg.horizon + 1, 0.0, records,
                        {"sigma_acc": state.sigma_acc.copy()})


def exp3pmb_run(cfg: BanditConfig, env: StochasticEnv | AdversarialEnv,
                rng: np.random.Generator, record: bool = True) -> EpisodeTrace:
    """Budgeted high-probability episode."""
    params = exp3pmb_parameters(cfg)
    state = _make_high_prob_state(cfg, params)
    trace = EpisodeTrace(0.0, 0, 0.0)
    _run_budgeted(state, cfg, env, rng, record, trace, cfg.budget)
    trace.extras["sigma_acc"] = state.sigma_acc.copy()
    return trace


def individual_rationality_violations(env: AdversarialEnv, plays: int) -> np.ndarray:
    """Rounds where some K-subset's cost total exceeds its reward total.

    The doubling-trick guarantee assumes sum(r) >= sum(c) for every K-subset
    each round; the binding subset maximizes cost minus reward, i.e. the K
    largest entries of (c - r). Returns the 1-based violating round indices.
    """
    diff = env.costs - env.rewards
    n = env.n_arms
    worst = np.partition(diff, n - plays, axis=1)[:, n - plays:].sum(axis=1)
    return np.nonzero(worst > 1e-12)[0] + 1


def warn_if_irrational(env: AdversarialEnv, plays: int) -> None:
    bad = individual_rationality_violations(env, plays)
    if bad.size:
        warnings.warn(
            f"{bad.size} round(s) violate the reward-covers-cost assumption "
            f"(first at round {int(bad[0])}); the doubling-trick regret "
            "guarantee does not apply", stacklevel=2)
