"""Adversarial policies: exponential weights with exactly K plays per round.

Four variants share one round (cap weights, map to probabilities, draw K
arms by dependent rounding, observe, estimate, reweight):

* budgeted   -- plays until the budget runs out; weight multiplier
  exp((K gamma / N)(rhat_i - chat_i)) for arms outside the capped set.
* doubling   -- budgeted play restarted in epochs with geometrically growing
  gain targets g_r and halving gamma_r, so no gain bound must be known ahead;
  its per-epoch subroutine reweights the *played* arms instead.
* high-probability, fixed horizon -- plays exactly T rounds, no costs; adds a
  per-arm confidence bonus alpha / (p_i sqrt(NT)) to the update.
* high-probability, budgeted      -- budgeted play with the cost term and a
  confidence bonus alpha sqrt(K c_min) / (p_i sqrt(NB)).

One lockstep round engine, play_lockstep, plays all four. Its episodes are
the rows of one pass; all start at round 1, so live rows share the round
index, and a row drops out when its episode ends. On (live rows, N) arrays
run the max-shift, exponentials and cap test, the probabilities and their
simplex check, and the high-probability rules' confidence fold and bonus; a
row that caps is mapped by sampling.compute_cap for that row alone. Per row,
on plain floats, run dependent rounding, the observation, the termination
rule (EpisodeTrace.play), epoch restarts, and the estimates with their folds
into the accumulators and the played arms' weights. Each row draws from its
own generator just what its episode played alone draws, in the same order
(one uniform per rounding step, then a stochastic round's rewards and
costs), and every stage repeats per row the IEEE operations of the 1-d
computation, so each row equals its lone episode bit for bit. There is no
other per-round path: the episode functions are the engine's one-row case,
and estimate is the stage _update runs for each row.

Weights are stored and updated in the log domain; see the sampling module.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .core import (
    AdversarialEnv,
    BanditConfig,
    ConfigError,
    EpisodeTrace,
    RoundRecord,
    SequenceExhausted,
    StochasticEnv,
    draw_round,
    sum_in_order,
    validate_config,
)
from .sampling import (
    WeightVector,
    _pairwise_steps,
    _rounding_start,
    cap_ratio,
    compute_cap,
    compute_probabilities,
)

E = math.e


class Variant(str, Enum):
    """The four policies, by their names in run specifications."""

    MB = "exp3_mb"        # budgeted
    ONE_MB = "exp3_1_mb"  # doubling-trick epochs over the budgeted subroutine
    PM = "exp3_pm"        # high-probability, fixed horizon
    PMB = "exp3_pmb"      # high-probability, budgeted


@dataclass
class Exp3State:
    """The engine's mutable policy state, one row per live episode.

    log_weights, gain_acc / loss_acc (the accumulated importance-weighted
    reward and cost estimates Ghat_i / Lhat_i) and sigma_acc (the confidence
    widths of the high-probability variants) are (rows, N) arrays; gamma is
    a (rows, 1) column. ``conf_scale`` is the variant's per-round confidence
    factor (1/sqrt(NT) or sqrt(K c_min)/sqrt(NB)).
    """

    log_weights: np.ndarray
    gain_acc: np.ndarray
    loss_acc: np.ndarray
    sigma_acc: np.ndarray
    gamma: np.ndarray
    variant: Variant
    n_arms: int
    plays: int
    alpha: Optional[float] = None
    conf_scale: Optional[float] = None

    @property
    def weight_rate(self) -> np.ndarray:
        """Multiplier of the estimate inside the weight exponent."""
        if self.variant in (Variant.MB, Variant.ONE_MB):
            return self.plays * self.gamma / self.n_arms
        return self.gamma * self.plays / (3.0 * self.n_arms)


def _row_ratio(gamma: float, plays: int, n_arms: int) -> float:
    """A row's cap-test ratio (sampling.cap_ratio): inf where capping never
    applies (gamma = 1), 0 where every arm is capped (K = N)."""
    if gamma == 1.0:
        return math.inf
    return 0.0 if plays == n_arms else cap_ratio(gamma, plays, n_arms)


def _probabilities(log_weights: np.ndarray, gamma: np.ndarray, ratio: np.ndarray,
                   plays: int) -> tuple[np.ndarray, Optional[np.ndarray]]:
    """Each row's inclusion probabilities, and the capped arms as a (rows, N)
    mask or None; ``gamma`` is a column, ``ratio`` a _row_ratio per row.

    A row whose largest shifted weight, exp(0) = 1, stays below ratio sum(w)
    gets p = K((1 - gamma) w / sum(w) + gamma / N) as compute_cap and
    compute_probabilities compute it; a row that caps is mapped by them.
    """
    rows, n = log_weights.shape
    w = np.exp(log_weights - log_weights.max(axis=1, keepdims=True))
    total = w.sum(axis=1, keepdims=True)
    p = plays * ((1.0 - gamma) * w / total + gamma / n)
    np.minimum(p, 1.0, out=p)
    capped = None
    for r in np.flatnonzero(ratio * total[:, 0] <= 1.0):
        g = float(gamma[r, 0])
        cap = compute_cap(WeightVector(log_weights[r]), g, plays, n)
        p[r] = compute_probabilities(cap, g, plays).p
        if capped is None:
            capped = np.zeros((rows, n), dtype=bool)
        capped[r, cap.capped] = True
    return p, capped


def _observe(state: Exp3State, ratio: np.ndarray, env: StochasticEnv | AdversarialEnv,
             t: int, rngs: Sequence[np.random.Generator]) -> tuple:
    """Round t of every row: (p, capped, arms, rewards, costs), the last
    three holding each row's K arms and observations. Row r rounds with
    rngs[r] and then, on a stochastic environment, draws from it its rewards
    and costs, as its episode played alone does."""
    p, capped = _probabilities(state.log_weights, state.gamma, ratio, state.plays)
    arms = [_pairwise_steps(row, state.plays, rng)
            for row, rng in zip(_rounding_start(p, state.plays).tolist(), rngs)]
    if isinstance(env, AdversarialEnv):
        if t > env.t_max:
            raise SequenceExhausted(f"sequence exhausted: round {t} exceeds T_max={env.t_max}")
        rewards, costs = env.rewards[t - 1].tolist(), env.costs[t - 1].tolist()
        return (p, capped, arms, [[rewards[j] for j in a] for a in arms],
                [[costs[j] for j in a] for a in arms])
    drawn = [draw_round(env, a, rng) for a, rng in zip(arms, rngs)]
    return p, capped, arms, [x for x, _ in drawn], [c for _, c in drawn]


def estimate(p: Sequence[float], arms: Sequence[int], rewards: Sequence[float],
             costs: Sequence[float]) -> tuple[list[float], list[float]]:
    """Importance-weighted estimates x / p at the played ``arms``, in their order.

    ``p`` holds every arm's inclusion probability, ``rewards`` and ``costs``
    the played arms' observations. An arm is played with probability p_i, so
    E[x_i / p_i * 1(played)] = x_i; the estimate of an arm not played is 0.
    """
    pa = [p[j] for j in arms]
    if any(q <= 0.0 for q in pa):
        raise ValueError("played arm has zero inclusion probability")
    return [x / q for x, q in zip(rewards, pa)], [c / q for c, q in zip(costs, pa)]


def _update(state: Exp3State, p: np.ndarray, capped: Optional[np.ndarray], arms: Sequence,
            rewards: Sequence, costs: Sequence) -> None:
    """Estimate and fold one round into each row r, which played arms[r].

    Estimates are +0.0 off the played arms, and no accumulator or log weight
    ever holds -0.0, so adding them moves only the played arms. Log weights
    move by rate * delta outside the capped arms: delta = rhat - chat for the
    budgeted rule (the doubling trick's moves capped arms too), and
    (rhat - chat) + bonus, or rhat + bonus without costs, for the
    high-probability rules, whose bonus alpha conf_scale / p_i reaches every
    arm and whose sigma_acc gains conf_scale / p_i.
    """
    variant = state.variant
    rates = np.ravel(state.weight_rate).tolist()
    high_prob = variant in (Variant.PM, Variant.PMB)
    if high_prob:
        state.sigma_acc += state.conf_scale / p
        bonus = state.alpha * state.conf_scale / p
        step = state.weight_rate * bonus  # rate (0 + bonus), off the played arms
        bonus = bonus.tolist()
    skip = capped if variant is Variant.MB else None
    p_rows = p.tolist()
    for r, a in enumerate(arms):
        rhat, chat = estimate(p_rows[r], a, rewards[r], costs[r])
        gain, loss, lw = state.gain_acc[r], state.loss_acc[r], state.log_weights[r]
        for j, u, v in zip(a, rhat, chat):
            gain[j] += u
            if variant is Variant.PM:
                step[r, j] = rates[r] * (u + bonus[r][j])
                continue
            loss[j] += v
            if high_prob:
                step[r, j] = rates[r] * ((u - v) + bonus[r][j])
            elif skip is None or not skip[r, j]:
                lw[j] += rates[r] * (u - v)
    if high_prob:
        if capped is not None:
            step[capped] = 0.0
        state.log_weights += step


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


def _best_subset_totals(gain_acc: np.ndarray, loss_acc: np.ndarray, plays: int) -> np.ndarray:
    """The largest sum of (Ghat_i - Lhat_i) over K-subsets, per row: the sum
    of each row's K largest entries."""
    n = gain_acc.shape[-1]
    return np.partition(gain_acc - loss_acc, n - plays, axis=-1)[..., n - plays:].sum(axis=-1)


def _epoch_target(g_r: float, gamma_r: float, n_arms: int, plays: int, c_min: float) -> float:
    # the best-subset total that ends an epoch: g_r - N(1 - c_min)/(K gamma_r)
    return g_r - n_arms * (1.0 - c_min) / (plays * gamma_r)


def play_lockstep(variant: Variant, cfg: BanditConfig, env: StochasticEnv | AdversarialEnv,
                  rngs: Sequence[np.random.Generator], gamma: Optional[float] = None,
                  record: bool = False) -> list[EpisodeTrace]:
    """One episode of ``variant`` per generator, played as the rows of one pass.

    The budgeted variant plays with the given ``gamma``; the others tune
    their parameters from ``cfg``. Trace i is the episode rngs[i] plays
    alone, bit for bit (see the module docstring). With ``record`` every
    round is kept as a RoundRecord.
    """
    validate_config(cfg)
    n, k, rows = cfg.n_arms, cfg.plays, len(rngs)
    log_w, sigma, alpha, conf_scale = 0.0, 0.0, None, None
    if variant is Variant.MB:
        if gamma is None or not 0.0 < gamma <= 1.0:
            raise ConfigError("gamma must lie in (0, 1]")
    elif variant is Variant.ONE_MB:
        gamma = epoch_threshold(0, n, k, cfg.c_min)[1]
    else:
        params = (exp3pm_parameters if variant is Variant.PM else exp3pmb_parameters)(cfg)
        gamma, log_w, sigma = params.gamma, params.log_w_init, params.sigma_init
        alpha, conf_scale = params.alpha, params.conf_scale
    state = Exp3State(np.full((rows, n), log_w), np.zeros((rows, n)), np.zeros((rows, n)),
                      np.full((rows, n), sigma), np.full((rows, 1), gamma), variant, n, k,
                      alpha, conf_scale)
    ratio = np.full(rows, _row_ratio(gamma, k, n))
    traces = [EpisodeTrace(0.0, 0, 0.0) for _ in rngs]
    # per episode: the remaining budget (0 for the fixed horizon, which pays
    # nothing) and the doubling trick's epoch, gain target and epoch starts
    left = [0.0 if variant is Variant.PM else cfg.budget] * rows
    doubling = variant is Variant.ONE_MB
    epochs, starts = [0] * rows, [[(0, 1)] for _ in rngs]
    targets = [_epoch_target(*epoch_threshold(0, n, k, cfg.c_min), n, k, cfg.c_min)
               ] * rows if doubling else []

    def extras(r: int, i: int) -> dict:
        if doubling:
            return {"epoch_starts": starts[i], "epochs_started": epochs[i] + 1,
                    "epochs_completed": epochs[i], "gain_acc": state.gain_acc[r].copy(),
                    "loss_acc": state.loss_acc[r].copy()}
        return {} if variant is Variant.MB else {"sigma_acc": state.sigma_acc[r].copy()}

    live = list(range(rows))  # the episode of each state row
    t = 1
    while live:
        if doubling:
            totals = _best_subset_totals(state.gain_acc, state.loss_acc, k).tolist()
            for r, (i, total) in enumerate(zip(live, totals)):
                while total > targets[i]:  # a new epoch: weights reset, gamma halved
                    epochs[i] += 1
                    g_r, gamma_r = epoch_threshold(epochs[i], n, k, cfg.c_min)
                    targets[i] = _epoch_target(g_r, gamma_r, n, k, cfg.c_min)
                    starts[i].append((epochs[i], t))
                    state.gamma[r], ratio[r] = gamma_r, _row_ratio(gamma_r, k, n)
                    state.log_weights[r] = 0.0
        p, capped, arms, rewards, costs = _observe(state, ratio, env, t, [rngs[i] for i in live])
        kept = []
        for r, i in enumerate(live):
            trace = traces[i]
            if variant is Variant.PM:
                trace.gain += sum_in_order(rewards[r])
            else:
                left[i] = trace.play(t, sum_in_order(costs[r]), sum_in_order(rewards[r]), left[i])
            if record:
                trace.rounds.append(RoundRecord(t, tuple(arms[r]), np.array(rewards[r]),
                                                np.array(costs[r]), p[r].copy(), left[i]))
            kept.append(not trace.stopping_time)
            if trace.stopping_time:  # the overdrawing round leaves the state as it was
                trace.extras = extras(r, i)
        if not all(kept):
            for name in ("log_weights", "gamma", "gain_acc", "loss_acc", "sigma_acc"):
                setattr(state, name, getattr(state, name)[kept])
            ratio, p = ratio[kept], p[kept]
            capped = None if capped is None else capped[kept]
            live, arms, rewards, costs = ([x for x, on in zip(seq, kept) if on]
                                          for seq in (live, arms, rewards, costs))
            if not live:
                break
        _update(state, p, capped, arms, rewards, costs)
        if variant is Variant.PM and t == cfg.horizon:
            for r, i in enumerate(live):
                traces[i].stopping_time, traces[i].extras = t + 1, extras(r, i)
            break
        t += 1
    return traces


def exp3mb_run_episode(cfg: BanditConfig, env: StochasticEnv | AdversarialEnv,
                       rng: np.random.Generator, gamma: Optional[float] = None,
                       record: bool = True) -> EpisodeTrace:
    """Budgeted episode at exploration rate ``gamma`` in (0, 1]; a missing
    gamma is a ConfigError. tune_gamma_mb turns a gain bound g into gamma."""
    return play_lockstep(Variant.MB, cfg, env, [rng], gamma, record)[0]


def exp31mb_run(cfg: BanditConfig, env: StochasticEnv | AdversarialEnv,
                rng: np.random.Generator, record: bool = True) -> EpisodeTrace:
    """Doubling-trick episode: epochs restart the budgeted subroutine.

    Each epoch r resets the weights to one and runs with gamma_r until the
    best-subset accumulator total passes g_r; the gain/loss accumulators carry
    across epochs. The test runs before every round, so several epochs can
    start at the same round. The budget check ends the episode exactly as in
    the plain budgeted variant. The trace's ``extras`` records epoch starts
    and the final accumulators.
    """
    return play_lockstep(Variant.ONE_MB, cfg, env, [rng], record=record)[0]


@dataclass(frozen=True)
class HighProbParams:
    """Initialization and update parameters of a high-probability variant."""

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
    return HighProbParams(alpha, gamma, log_w_init, sigma_init, conf_scale)


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
    return HighProbParams(alpha, gamma, log_w_init, sigma_init, conf_scale)


def exp3pm_run(cfg: BanditConfig, env: StochasticEnv | AdversarialEnv,
               rng: np.random.Generator, record: bool = True) -> EpisodeTrace:
    """Fixed-horizon episode: exactly T rounds, costs never observed or paid.

    The trace reports stopping_time = T + 1 so the credited range 1..T matches
    the budgeted convention; budget_spent stays zero.
    """
    return play_lockstep(Variant.PM, cfg, env, [rng], record=record)[0]


def exp3pmb_run(cfg: BanditConfig, env: StochasticEnv | AdversarialEnv,
                rng: np.random.Generator, record: bool = True) -> EpisodeTrace:
    """Budgeted high-probability episode."""
    return play_lockstep(Variant.PMB, cfg, env, [rng], record=record)[0]


def individual_rationality_violations(env: AdversarialEnv, plays: int) -> np.ndarray:
    """Rounds where some K-subset's cost total exceeds its reward total.

    The doubling-trick guarantee assumes sum(r) >= sum(c) for every K-subset
    each round; the binding subset maximizes cost minus reward, i.e. the K
    largest entries of (c - r). Returns the 1-based violating round indices.
    """
    return np.nonzero(_best_subset_totals(env.costs, env.rewards, plays) > 1e-12)[0] + 1


def warn_if_irrational(env: AdversarialEnv, plays: int) -> None:
    bad = individual_rationality_violations(env, plays)
    if bad.size:
        warnings.warn(
            f"{bad.size} round(s) violate the reward-covers-cost assumption "
            f"(first at round {int(bad[0])}); the doubling-trick regret "
            "guarantee does not apply", stacklevel=2)
