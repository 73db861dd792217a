"""Adversarial policies: exponential weights with exactly K plays per round.

Four variants share one round (cap weights, map to probabilities, draw K
arms by dependent rounding, observe, fold in the estimates, reweight):

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
index, and a row drops out when its episode ends. Each row is an Exp3State
of plain floats: Python lists hold its log weights and accumulators, and
every stage of a round runs per row on them, in the IEEE order of the 1-d
numpy expressions of the scalar loop: the probabilities, dependent rounding
(after the range and sum-to-K check, which only decides whether to raise),
the observation, the termination rule (EpisodeTrace.play), the estimates,
the folds into the accumulators and weights, and the high-probability
rules' bonus and confidence widths. The numpy calls left are where numpy
decides the bits: one np.exp over all rows' max-shifted log weights laid
end to end (its SIMD exp), one row sum of that (rows, N) array (pairwise
from eight terms), np.exp, np.add.reduce and np.log once more for a row
that caps (_cap), and, for the doubling trick's epoch test,
_best_subset_totals on the stacked accumulators (the order np.partition
leaves the top K in is the order they are summed in).

Each row draws from its own generator just what its episode played alone
draws, in the same order: one uniform per rounding step, then a stochastic
round's rewards and costs. On an adversarial environment a row's generator
feeds its rounding alone, so the row reads its uniforms through a
sampling.BlockUniforms reader, which draws them a block at a time and, when
the pass ends, rewinds the generator to exactly the uniforms the row used;
every generator ends where its lone episode leaves it. So each row equals
its lone episode bit for bit. There is no other per-round path: the
episode functions are the engine's one-row case.

Weights live in the log domain throughout: over an episode of up to
B / (K c_min) rounds the raw weights overflow doubles, while every quantity
that matters here (the cap condition, v / sum(w), the probabilities) is
invariant under a common rescaling, so all exponentiations subtract the
maximum log weight first.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from typing import Container, Optional, Sequence

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
)
from .sampling import BlockUniforms, dependent_rounding

E = math.e


class Variant(str, Enum):
    """The four policies, by their names in run specifications."""

    MB = "exp3_mb"        # budgeted
    ONE_MB = "exp3_1_mb"  # doubling-trick epochs over the budgeted subroutine
    PM = "exp3_pm"        # high-probability, fixed horizon
    PMB = "exp3_pmb"      # high-probability, budgeted


def cap_ratio(gamma: float, plays: int, n_arms: int) -> float:
    """The threshold ratio (1/K - gamma/N) / (1 - gamma)."""
    return (1.0 / plays - gamma / n_arms) / (1.0 - gamma)


class Exp3State:
    """One episode's policy state, on plain floats.

    log_weights, gain_acc / loss_acc (the accumulated importance-weighted
    reward and cost estimates Ghat_i / Lhat_i) and sigma_acc (the confidence
    widths of the high-probability variants) are lists of N floats.
    ``conf_scale`` is the variant's per-round confidence factor
    (1/sqrt(NT) or sqrt(K c_min)/sqrt(NB)). set_gamma derives from gamma the
    constants a round reads: the cap-test ratio, the weight rate (the
    multiplier of the estimates inside the weight exponent) and the two
    factors of the probability map.
    """

    __slots__ = ("variant", "n_arms", "plays", "alpha", "conf_scale", "log_weights",
                 "gain_acc", "loss_acc", "sigma_acc", "gamma", "ratio", "rate", "keep",
                 "spread")

    def __init__(self, variant: Variant, n_arms: int, plays: int, gamma: float,
                 log_w: float = 0.0, sigma: float = 0.0, alpha: Optional[float] = None,
                 conf_scale: Optional[float] = None) -> None:
        self.variant, self.n_arms, self.plays = variant, n_arms, plays
        self.alpha, self.conf_scale = alpha, conf_scale
        self.log_weights = [log_w] * n_arms
        self.gain_acc = [0.0] * n_arms
        self.loss_acc = [0.0] * n_arms
        self.sigma_acc = [sigma] * n_arms
        self.set_gamma(gamma)

    def set_gamma(self, gamma: float) -> None:
        n, k = self.n_arms, self.plays
        self.gamma = gamma
        # cap_ratio, but inf where capping never applies (gamma = 1) and 0
        # where every arm is capped (K = N)
        if gamma == 1.0:
            self.ratio = math.inf
        else:
            self.ratio = 0.0 if k == n else cap_ratio(gamma, k, n)
        if self.variant in (Variant.MB, Variant.ONE_MB):
            self.rate = k * gamma / n
        else:
            self.rate = gamma * k / (3.0 * n)
        self.keep, self.spread = 1.0 - gamma, gamma / n


def _probabilities(states: Sequence[Exp3State]) -> list[tuple[list[float], Container[int]]]:
    """Each state's inclusion probabilities and capped arms (empty if none).

    All rows' max-shifted log weights are exponentiated as one flat array
    and summed as its (rows, N) view, which gives each row the bits of the
    1-d exp and sum. A row whose largest shifted weight, exp(0) = 1, stays
    below ratio sum(w) maps these weights w; a row that caps maps its
    effective weights (_cap). Either way p = K((1 - gamma) w / sum(w) +
    gamma / N), clipped at 1, in the IEEE order of the 1-d numpy expression.
    """
    shifted = []  # every row's max-shifted log weights, end to end
    for s in states:
        top = max(s.log_weights)
        shifted += [x - top for x in s.log_weights]
    n = states[0].n_arms
    w = np.exp(shifted)
    totals = np.add.reduce(w.reshape(-1, n), axis=1).tolist()
    w = w.tolist()
    out = []
    for r, (s, total) in enumerate(zip(states, totals)):
        row, capped = w[r * n:(r + 1) * n], ()
        if not s.ratio * total > 1.0:
            row, total, capped = _cap(s, row)
        k, keep, spread = s.plays, s.keep, s.spread
        # np.minimum's clip, and like it passes a NaN through
        out.append(([1.0 if (q := k * (keep * x / total + spread)) > 1.0 else q for x in row],
                    capped))
    return out


def _cap(s: Exp3State, w: list[float]) -> tuple[list[float], float, frozenset[int]]:
    """The effective weights of a row that caps, max-shifted, their sum and
    the capped arms; ``w`` holds the row's max-shifted weights.

    The cap v solves v / sum_i min(w_i, v) = ratio, which is piecewise
    linear in the size of the capped set: scanning sizes k in descending
    weight order, v = ratio (sum of the weights below rank k) / (1 - ratio k)
    is taken at the first k with w_(k) >= v > w_(k+1); ties at v are capped.
    At K = N every arm is capped at the least weight. The sums below each
    rank accumulate from the least weight up, since the tail can lie many
    orders of magnitude below the top weights. log v is np.log's, and the
    effective log weights go through one np.exp and np.add.reduce, so a
    capped row has the bits of the 1-d numpy cap map kept in
    tests/cap_reference.py.
    """
    n, lw = s.n_arms, s.log_weights
    if s.plays == n:
        capped, log_v = range(n), min(lw)
    else:
        ratio = s.ratio
        # a stable sort: equal weights stay in index order
        order = sorted(range(n), key=w.__getitem__, reverse=True)
        ws = [w[i] for i in order]
        below = list(accumulate(reversed(ws)))[::-1]  # below[k]: the sum of ws[k:]
        for k in range(1, n):
            denom = 1.0 - ratio * k  # falls with k, so no later k passes once it fails
            if denom > 0.0:
                v = ratio * below[k] / denom
                if ws[k - 1] >= v > ws[k]:
                    break
        else:
            raise RuntimeError("no consistent cap set found; weight state is inconsistent")
        capped, log_v = order[:k], float(np.log(v) + max(lw))
    eff = list(lw)
    for j in capped:
        eff[j] = log_v
    top = max(eff)
    w_eff = np.exp([x - top for x in eff])
    return w_eff.tolist(), float(np.add.reduce(w_eff)), frozenset(capped)


def _update(state: Exp3State, p: Sequence[float], capped: Container[int],
            arms: Sequence[int], rewards: Sequence[float], costs: Sequence[float]) -> None:
    """Fold one round of ``state``'s episode, which played ``arms``, into it.

    The played arms' importance-weighted estimates x / p_i move the
    accumulators there; an arm is played with probability p_i, so
    E[x_i / p_i * 1(played)] = x_i, and an arm not played estimates 0.
    Log weights move by rate * delta outside the capped arms: delta =
    rhat - chat at the played arms for the budgeted rule (the doubling
    trick's moves capped arms too), and at every arm (rhat - chat) + bonus,
    or rhat + bonus without costs, for the high-probability rules, whose
    bonus alpha conf_scale / p_i is the only term off the played arms and
    whose sigma_acc gains conf_scale / p_i at every arm. Each sum is the one
    the 1-d arrays of the scalar loop form, minus the terms that add +0.0
    (no accumulator or log weight ever holds -0.0). Probabilities are at
    least K gamma / N > 0.
    """
    variant, rate = state.variant, state.rate
    gain, loss, lw = state.gain_acc, state.loss_acc, state.log_weights
    if variant is Variant.MB or variant is Variant.ONE_MB:
        moves_capped = variant is Variant.ONE_MB
        for j, x, c in zip(arms, rewards, costs):
            q = p[j]
            u, v = x / q, c / q
            gain[j] += u
            loss[j] += v
            if moves_capped or j not in capped:
                lw[j] += rate * (u - v)
        return
    scale, bonus_scale = state.conf_scale, state.alpha * state.conf_scale
    state.sigma_acc = [x + scale / q for x, q in zip(state.sigma_acc, p)]
    moved = state.log_weights = [x + rate * (bonus_scale / q) for x, q in zip(lw, p)]
    for j, x, c in zip(arms, rewards, costs):
        q = p[j]
        u = x / q
        gain[j] += u
        if variant is Variant.PMB:
            v = c / q
            loss[j] += v
            u = u - v
        moved[j] = lw[j] + rate * (u + bonus_scale / q)
    for j in capped:
        moved[j] = lw[j]


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
    alone, bit for bit, and rngs[i] ends where that episode leaves it (see
    the module docstring). With ``record`` every round is kept as a
    RoundRecord.
    """
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
    states = [Exp3State(variant, n, k, gamma, log_w, sigma, alpha, conf_scale) for _ in rngs]
    traces = [EpisodeTrace(0.0, 0, 0.0) for _ in rngs]
    # per episode: the remaining budget (0 for the fixed horizon, which pays
    # nothing) and the doubling trick's epoch, gain target and epoch starts
    left = [0.0 if variant is Variant.PM else cfg.budget] * rows
    doubling = variant is Variant.ONE_MB
    epochs, starts = [0] * rows, [[(0, 1)] for _ in rngs]
    targets = [_epoch_target(*epoch_threshold(0, n, k, cfg.c_min), n, k, cfg.c_min)
               ] * rows if doubling else []
    adversarial = isinstance(env, AdversarialEnv)
    # an adversarial row's generator feeds its rounding alone, so its
    # uniforms are read in blocks; a stochastic row's also feeds draw_round
    readers = [BlockUniforms(rng) for rng in rngs] if adversarial else []
    draws = [reader.draw for reader in readers] if adversarial else [rng.random for rng in rngs]

    def extras(i: int) -> dict:
        s = states[i]
        if doubling:
            return {"epoch_starts": starts[i], "epochs_started": epochs[i] + 1,
                    "epochs_completed": epochs[i], "gain_acc": np.array(s.gain_acc),
                    "loss_acc": np.array(s.loss_acc)}
        return {} if variant is Variant.MB else {"sigma_acc": np.array(s.sigma_acc)}

    live = list(range(rows))  # the episodes still playing
    t = 1
    try:
        while live:
            if doubling:
                totals = _best_subset_totals(np.array([states[i].gain_acc for i in live]),
                                             np.array([states[i].loss_acc for i in live]), k)
                for i, total in zip(live, totals.tolist()):
                    while total > targets[i]:  # a new epoch: weights reset, gamma halved
                        epochs[i] += 1
                        g_r, gamma_r = epoch_threshold(epochs[i], n, k, cfg.c_min)
                        targets[i] = _epoch_target(g_r, gamma_r, n, k, cfg.c_min)
                        starts[i].append((epochs[i], t))
                        states[i].set_gamma(gamma_r)
                        states[i].log_weights = [0.0] * n
            if adversarial:
                if t > env.t_max:
                    raise SequenceExhausted(
                        f"sequence exhausted: round {t} exceeds T_max={env.t_max}")
                round_rewards, round_costs = env.rewards[t - 1].tolist(), env.costs[t - 1].tolist()
            for i, (p, capped) in zip(live, _probabilities([states[i] for i in live])):
                arms = dependent_rounding(k, p, draws[i])
                if adversarial:
                    rewards = [round_rewards[j] for j in arms]
                    costs = [round_costs[j] for j in arms]
                else:
                    rewards, costs = draw_round(env, arms, rngs[i])
                trace = traces[i]
                if variant is Variant.PM:
                    trace.gain += sum_in_order(rewards)
                else:
                    left[i] = trace.play(t, sum_in_order(costs), sum_in_order(rewards), left[i])
                if record:
                    trace.rounds.append(RoundRecord(t, tuple(arms), np.array(rewards),
                                                    np.array(costs), np.array(p), left[i]))
                if trace.stopping_time:  # the overdrawing round leaves the state as it was
                    trace.extras = extras(i)
                else:
                    _update(states[i], p, capped, arms, rewards, costs)
            live = [i for i in live if not traces[i].stopping_time]
            if variant is Variant.PM and t == cfg.horizon:
                for i in live:
                    traces[i].stopping_time, traces[i].extras = t + 1, extras(i)
                break
            t += 1
    finally:
        for reader in readers:
            reader.rewind()
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
