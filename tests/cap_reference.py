"""Array reference of the exp3 family's cap and probability map.

One weight vector at a time, on numpy arrays: the cap of the large weights
(CapResult, compute_cap) and the inclusion probabilities of the effective
weights (compute_probabilities). This is the numpy cap map the package
carried beside its plain-float engine; the engine (exp3._probabilities) now
maps capped rows itself, and tests/test_engine.py and tests/test_exp3.py
check it against this reference bit for bit. It keeps its own copy of the
cap ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


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
