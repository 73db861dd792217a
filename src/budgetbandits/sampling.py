"""Weight capping, inclusion probabilities, and exact-K dependent rounding.

Exponential-weights policies that must play exactly K arms per round map their
weights to per-arm inclusion probabilities p_i with sum(p) = K. Large weights
are capped at a value v so every p_i stays at or below 1, and a set of exactly
K distinct arms is then drawn with marginal inclusion probabilities p_i.

Weights live in the log domain throughout: over an episode of up to
B / (K c_min) rounds the raw weights overflow doubles, while every quantity
that matters here (the cap condition, v / sum(w), the probabilities) is
invariant under a common rescaling, so all exponentiations subtract the
maximum log weight first.

Rounding comes in two kernels with one step rule. _pairwise_steps draws one
subset on plain floats with one uniform per step; dependent_rounding calls
it, and so does the lockstep engine (exp3.play_lockstep) for each of its
rows, with the row's own generator, after checking, clipping and snapping
all rows' vectors at once (_rounding_start). _pairwise_round steps many
draws as numpy arrays, one uniform per unfinished row per step, for
dependent_rounding_batch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

SIMPLEX_TOL = 1e-6
FREEZE_TOL = 1e-9


@dataclass(frozen=True)
class WeightVector:
    """Arm weights stored as log w_i."""

    log_weights: np.ndarray

    def __post_init__(self) -> None:
        lw = np.asarray(self.log_weights, dtype=np.float64)
        object.__setattr__(self, "log_weights", lw)
        if lw.ndim != 1:
            raise ValueError("log_weights must be a 1-d vector")
        if not np.all(np.isfinite(lw)):
            raise ValueError("log_weights must be finite")


@dataclass(frozen=True)
class CapResult:
    """Cap value (if any), the capped arm set, and the effective weights.

    ``capped`` holds the indices whose weight was truncated to v (ties with
    w_i == v land in the capped set). ``log_effective`` is log of the
    effective weights actually used for the probability map.
    """

    log_v: Optional[float]
    capped: np.ndarray
    log_effective: np.ndarray

    @property
    def v_t(self) -> Optional[float]:
        """Cap value in the scale of the input weights; may overflow to inf."""
        return None if self.log_v is None else float(np.exp(self.log_v))


@dataclass(frozen=True)
class ProbabilityVector:
    """Per-arm inclusion probabilities with sum(p) = K."""

    p: np.ndarray


def cap_ratio(gamma: float, plays: int, n_arms: int) -> float:
    """The threshold ratio (1/K - gamma/N) / (1 - gamma)."""
    return (1.0 / plays - gamma / n_arms) / (1.0 - gamma)


def compute_cap(weights: WeightVector, gamma: float, plays: int, n_arms: int) -> CapResult:
    """Cap weights so the probability map stays within [0, 1].

    Capping triggers when max_i w_i >= ratio * sum_j w_j with
    ratio = (1/K - gamma/N)/(1 - gamma). The cap value v solves

        v / sum_i min(w_i, v) = ratio,

    which is piecewise linear in the size of the capped set: scanning
    candidate sizes k in descending weight order, v = ratio * (sum of weights
    below rank k) / (1 - ratio * k) is accepted at the first k with
    w_(k) >= v > w_(k+1) (ties at v are capped).

    gamma = 1 skips capping (probabilities are uniform regardless), and
    K = N caps everything (every arm must be played).
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    lw = weights.log_weights
    if lw.shape[0] != n_arms:
        raise ValueError("weight vector length does not match n_arms")
    if gamma == 1.0:
        return CapResult(None, np.empty(0, dtype=np.intp), lw)
    if plays == n_arms:
        # every arm is forced into play; any v <= min(w) satisfies the
        # defining ratio v / (N v) = 1/N
        log_v = float(lw.min())
        return CapResult(log_v, np.arange(n_arms, dtype=np.intp), np.full(n_arms, log_v))

    shift = float(lw.max())
    w = np.exp(lw - shift)
    total = float(w.sum())
    ratio = cap_ratio(gamma, plays, n_arms)
    if w.max() < ratio * total:
        return CapResult(None, np.empty(0, dtype=np.intp), lw)

    order = np.argsort(-w, kind="stable")
    ws = w[order]
    # sum of weights below rank k, accumulated small-to-large: the tail can be
    # many orders of magnitude below the top weights, and subtracting a top-k
    # cumulative sum from the total would cancel catastrophically
    below = np.cumsum(ws[::-1])[::-1]
    for k in range(1, n_arms):
        denom = 1.0 - ratio * k
        if denom <= 0.0:
            break
        v = ratio * below[k] / denom
        if ws[k - 1] >= v > ws[k]:
            capped = np.sort(order[:k])
            log_v = float(np.log(v) + shift)
            log_eff = lw.copy()
            log_eff[capped] = log_v
            return CapResult(log_v, capped, log_eff)
    raise RuntimeError("no consistent cap set found; weight state is inconsistent")


def compute_probabilities(cap: CapResult, gamma: float, plays: int) -> ProbabilityVector:
    """Map effective weights to p_i = K((1-gamma) w~_i / sum_j w~_j + gamma/N)."""
    log_eff = cap.log_effective
    n_arms = log_eff.shape[0]
    w = np.exp(log_eff - log_eff.max())
    p = plays * ((1.0 - gamma) * w / w.sum() + gamma / n_arms)
    np.minimum(p, 1.0, out=p)
    return ProbabilityVector(p)


def dependent_rounding(plays: int, probabilities: ProbabilityVector | np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw exactly K distinct arm indices with the given inclusion marginals.

    Pairwise rounding: repeatedly take two fractional coordinates i, j and,
    with alpha = min(1 - p_i, p_j) and beta = min(p_i, 1 - p_j), move to
    (p_i + alpha, p_j - alpha) with probability beta / (alpha + beta), else to
    (p_i - beta, p_j + beta). Each step preserves every marginal and the sum
    exactly and freezes at least one coordinate, so at most N - 1 steps run.
    Coordinates within 1e-9 of {0, 1} count as frozen.
    """
    p = probabilities.p if isinstance(probabilities, ProbabilityVector) else np.asarray(probabilities)
    if p.ndim != 1:
        raise ValueError("probability vector must be 1-d")
    values = _rounding_start(p[None], plays)[0].tolist()
    return np.asarray(_pairwise_steps(values, plays, rng), dtype=np.intp)


def dependent_rounding_batch(plays: int, probabilities: ProbabilityVector | np.ndarray,
                             draws: int, rng: np.random.Generator) -> np.ndarray:
    """Stack of ``draws`` independent dependent-rounding draws, one per row."""
    p = probabilities.p if isinstance(probabilities, ProbabilityVector) else np.asarray(probabilities)
    return _pairwise_round(np.broadcast_to(p, (draws, p.shape[0])), plays, rng)


def _rounding_start(p: np.ndarray, plays: int) -> np.ndarray:
    """Check a (rows, N) stack of probability vectors (each in [0, 1] and
    summing to K) and return its working copy, clipped to [0, 1] with the
    entries within FREEZE_TOL of 0 or 1 snapped."""
    # written so that NaN fails the checks
    if not (p.min() >= -SIMPLEX_TOL and p.max() <= 1.0 + SIMPLEX_TOL):
        raise ValueError("probabilities must lie in [0, 1]")
    if not np.abs(p.sum(axis=1) - plays).max() <= SIMPLEX_TOL:
        raise ValueError(f"probabilities must sum to K={plays} (tolerance {SIMPLEX_TOL})")
    work = np.minimum(np.maximum(p, 0.0, dtype=np.float64), 1.0)
    _snap(work)
    return work


def _pairwise_steps(values: list[float], plays: int, rng: np.random.Generator) -> list[int]:
    """One draw of the pairwise scheme on a row of plain floats, which it overwrites.

    Unrolled over floats because a draw per row and round is the policies'
    hot path; step for step it is the batched kernel (same pairing order,
    one uniform per step, same freeze tolerance). Only the pair's two
    coordinates move in a step, so only they can leave the fractional list.
    """
    draw = rng.random
    frac = [i for i, x in enumerate(values) if 0.0 < x < 1.0]
    while len(frac) >= 2:
        i, j = frac[0], frac[1]
        pi, pj = values[i], values[j]
        alpha, beta = 1.0 - pi, 1.0 - pj  # min(1 - pi, pj) and min(pi, 1 - pj)
        if pj < alpha:
            alpha = pj
        if pi < beta:
            beta = pi
        if draw() < beta / (alpha + beta):
            pi, pj = pi + alpha, pj - alpha
        else:
            pi, pj = pi - beta, pj + beta
        if pi <= FREEZE_TOL:
            pi = 0.0
        elif pi >= 1.0 - FREEZE_TOL:
            pi = 1.0
        if pj <= FREEZE_TOL:
            pj = 0.0
        elif pj >= 1.0 - FREEZE_TOL:
            pj = 1.0
        values[i], values[j] = pi, pj
        if not 0.0 < pj < 1.0:
            del frac[1]
        if not 0.0 < pi < 1.0:
            del frac[0]
    chosen = [i for i, x in enumerate(values) if x > 0.5]
    if len(chosen) != plays:
        raise RuntimeError("rounding did not land on exactly K arms; input off the simplex")
    return chosen


def _pairwise_round(p: np.ndarray, plays: int, rng: np.random.Generator) -> np.ndarray:
    work = _rounding_start(p, plays)
    for _ in range(p.shape[1]):
        frac = (work > 0.0) & (work < 1.0)
        active = np.nonzero(frac.sum(axis=1) >= 2)[0]
        if active.size == 0:
            break
        sub = frac[active]
        i = sub.argmax(axis=1)
        sub[np.arange(active.size), i] = False
        j = sub.argmax(axis=1)
        pi = work[active, i]
        pj = work[active, j]
        alpha = np.minimum(1.0 - pi, pj)
        beta = np.minimum(pi, 1.0 - pj)
        up = rng.random(active.size) < beta / (alpha + beta)
        work[active, i] = np.where(up, pi + alpha, pi - beta)
        work[active, j] = np.where(up, pj - alpha, pj + beta)
        _snap(work)

    chosen = work > 0.5
    counts = chosen.sum(axis=1)
    if np.any(counts != plays):
        raise RuntimeError("rounding did not land on exactly K arms; input off the simplex")
    out = np.nonzero(chosen)[1].reshape(work.shape[0], plays)
    return out


def _snap(work: np.ndarray) -> None:
    work[work <= FREEZE_TOL] = 0.0
    work[work >= 1.0 - FREEZE_TOL] = 1.0
