"""Array reference of pairwise dependent rounding.

Many draws at once, as the rows of a numpy array: each step pairs the first
two fractional coordinates of every unfinished row and takes one uniform per
such row from a single rng.random call, snapping entries within FREEZE_TOL
of 0 or 1. This is the batched kernel the package carried beside its
single-draw one (sampling.dependent_rounding); a row's steps and uniforms are
the single draw's, so tests/test_sampling.py checks the package against it
bit for bit. The 10^5-draw marginal tests draw from it too, which keeps
their streams as they were. It keeps its own copy of the freeze tolerance.
"""

from __future__ import annotations

import numpy as np

from budgetbandits.sampling import _check_simplex

FREEZE_TOL = 1e-9


def dependent_rounding_batch(plays: int, probabilities, draws: int,
                             rng: np.random.Generator) -> np.ndarray:
    """Stack of ``draws`` independent dependent-rounding draws, one per row."""
    p = np.asarray(probabilities)
    if p.ndim != 1:
        raise ValueError("probability vector must be 1-d")
    _check_simplex(p.tolist(), plays)
    return _pairwise_round(np.broadcast_to(p, (draws, p.shape[0])), plays, rng)


def _pairwise_round(p: np.ndarray, plays: int, rng: np.random.Generator) -> np.ndarray:
    """One draw per row of the (rows, N) stack ``p`` of checked vectors,
    which it snaps (and so clips) before the first step."""
    work = np.array(p, dtype=np.float64)
    _snap(work)
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
