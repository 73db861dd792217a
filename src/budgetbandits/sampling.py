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

Rounding has one kernel, _pairwise_steps, which draws one subset on plain
floats with one uniform per step; dependent_rounding calls it, and so does
the lockstep engine (exp3.play_lockstep) for each of its rows, after
_check_simplex has checked the row on plain floats. A uniform comes from a
``draw`` callable: the generator's own rng.random, or, for an engine row
whose generator feeds nothing but rounding, a BlockUniforms reader, which
draws rng.random(BLOCK) at a time and at the end rewinds the generator to
exactly the uniforms it handed out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from operator import length_hint
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

SIMPLEX_TOL = 1e-6
FREEZE_TOL = 1e-9
BLOCK = 256  # uniforms per generator call of a BlockUniforms reader


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


def cap_ratio(gamma: float, plays: int, n_arms: int) -> float:
    """The threshold ratio (1/K - gamma/N) / (1 - gamma)."""
    return (1.0 / plays - gamma / n_arms) / (1.0 - gamma)


def compute_cap(log_weights: Sequence[float] | np.ndarray, gamma: float, plays: int,
                n_arms: int) -> CapResult:
    """Cap the weights with logs ``log_weights`` so the probability map stays
    within [0, 1].

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
    lw = np.asarray(log_weights, dtype=np.float64)
    if lw.ndim != 1:
        raise ValueError("log_weights must be a 1-d vector")
    if not np.all(np.isfinite(lw)):
        raise ValueError("log_weights must be finite")
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
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


def compute_probabilities(cap: CapResult, gamma: float, plays: int) -> np.ndarray:
    """Per-arm inclusion probabilities p_i = K((1-gamma) w~_i / sum_j w~_j + gamma/N)
    of the effective weights, with sum(p) = K."""
    log_eff = cap.log_effective
    n_arms = log_eff.shape[0]
    w = np.exp(log_eff - log_eff.max())
    p = plays * ((1.0 - gamma) * w / w.sum() + gamma / n_arms)
    np.minimum(p, 1.0, out=p)
    return p


def dependent_rounding(plays: int, probabilities: Sequence[float] | np.ndarray,
                       rng: np.random.Generator) -> np.ndarray:
    """Draw exactly K distinct arm indices with the given inclusion marginals.

    Pairwise rounding: repeatedly take two fractional coordinates i, j and,
    with alpha = min(1 - p_i, p_j) and beta = min(p_i, 1 - p_j), move to
    (p_i + alpha, p_j - alpha) with probability beta / (alpha + beta), else to
    (p_i - beta, p_j + beta). Each step preserves every marginal and the sum
    exactly and freezes at least one coordinate, so at most N - 1 steps run.
    Coordinates within 1e-9 of {0, 1} count as frozen.
    """
    p = np.asarray(probabilities)
    if p.ndim != 1:
        raise ValueError("probability vector must be 1-d")
    values = p.tolist()
    _check_simplex(values, plays)
    return np.asarray(_pairwise_steps(values, plays, rng.random), dtype=np.intp)


def _check_simplex(p: list[float], plays: int) -> None:
    """Raise ValueError unless every entry of ``p`` lies in [0, 1] and the
    entries sum to K, both up to SIMPLEX_TOL.

    A NaN, which min and max may pass over, makes the exact sum NaN and
    fails the sum check.
    """
    if not (min(p) >= -SIMPLEX_TOL and max(p) <= 1.0 + SIMPLEX_TOL):
        raise ValueError("probabilities must lie in [0, 1]")
    if not abs(math.fsum(p) - plays) <= SIMPLEX_TOL:
        raise ValueError(f"probabilities must sum to K={plays} (tolerance {SIMPLEX_TOL})")


class BlockUniforms:
    """A generator's uniforms read BLOCK at a time, for a caller that draws
    nothing else from it while it reads.

    ``draw()`` returns the next uniform; value for value these are the
    uniforms of scalar rng.random() calls. Each block keeps the generator's
    state from before its rng.random(BLOCK) call, and rewind() restores it
    and redraws just the block's uniforms handed out, which leaves the
    generator where the scalar calls would have. Rewind once, when done.
    """

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._state: Optional[dict] = None  # before the current block
        self._unread: Iterator[float] = iter(())  # the current block's rest
        self.draw: Callable[[], float] = chain.from_iterable(self._blocks()).__next__

    def _blocks(self) -> Iterator[Iterator[float]]:
        while True:
            self._state = self._rng.bit_generator.state
            self._unread = iter(self._rng.random(BLOCK).tolist())
            yield self._unread

    def rewind(self) -> None:
        if self._state is not None:
            self._rng.bit_generator.state = self._state
            self._rng.random(BLOCK - length_hint(self._unread))
            self._state = None


def _pairwise_steps(p: Sequence[float], plays: int, draw: Callable[[], float]) -> list[int]:
    """One draw of the pairwise scheme on a checked row of plain floats: the
    K arms chosen, in ascending order.

    Unrolled over floats because a draw per row and round is the policies'
    hot path. Each step pairs the first two fractional coordinates and
    reads one uniform from ``draw``; an entry within FREEZE_TOL of 0 or 1
    is frozen, from the start and after every step. A step freezes at least
    one of its pair (the moved coordinate lands on 0 exactly or within
    rounding of 1), so one left-to-right scan suffices: it carries the
    pair's fractional survivor, if any, into a step with the next
    fractional entry.
    """
    chosen = []
    carry, pi = -1, 0.0  # the carried coordinate and its value
    for j, pj in enumerate(p):
        if pj <= FREEZE_TOL:
            continue
        if pj >= 1.0 - FREEZE_TOL:
            chosen.append(j)
            continue
        if carry < 0:
            carry, pi = j, pj
            continue
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
        if pj == 1.0:
            chosen.append(j)
        if not 0.0 < pi < 1.0:
            if pi == 1.0:
                chosen.append(carry)
            carry, pi = (j, pj) if 0.0 < pj < 1.0 else (-1, 0.0)
    if pi > 0.5:  # a fractional survivor with no partner left
        chosen.append(carry)
    if len(chosen) != plays:
        raise RuntimeError("rounding did not land on exactly K arms; input off the simplex")
    chosen.sort()
    return chosen

