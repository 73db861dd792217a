"""Exact-K dependent rounding of inclusion probabilities.

Exponential-weights policies that must play exactly K arms per round map
their weights to per-arm inclusion probabilities p_i in [0, 1] with
sum(p) = K (exp3._probabilities), and a set of exactly K distinct arms is
then drawn with marginal inclusion probabilities p_i.

dependent_rounding draws one subset on plain floats with one uniform per
step; the lockstep engine (exp3.play_lockstep) calls it for each of its
rows. A uniform comes from a ``draw`` callable: the generator's own
rng.random, or, for an engine row whose generator feeds nothing but
rounding, a BlockUniforms reader, which draws rng.random(BLOCK) at a time
and at the end rewinds the generator to exactly the uniforms it handed out.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import length_hint
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

SIMPLEX_TOL = 1e-6
FREEZE_TOL = 1e-9
BLOCK = 256  # uniforms per generator call of a BlockUniforms reader


def _check_simplex(p: Sequence[float], plays: int) -> None:
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


def dependent_rounding(plays: int, p: Sequence[float], draw: Callable[[], float]) -> list[int]:
    """Exactly K distinct arms, in ascending order, drawn with the inclusion
    marginals ``p``, a row of plain floats; ValueError unless it passes
    _check_simplex.

    Pairwise rounding: repeatedly take two fractional coordinates i, j and,
    with alpha = min(1 - p_i, p_j) and beta = min(p_i, 1 - p_j), move to
    (p_i + alpha, p_j - alpha) with probability beta / (alpha + beta), else to
    (p_i - beta, p_j + beta). Each step preserves every marginal and the sum
    exactly and reads one uniform from ``draw``. An entry within FREEZE_TOL
    of 0 or 1 is frozen, from the start and after every step. A step freezes
    at least one of its pair (the moved coordinate lands on 0 exactly or
    within rounding of 1), so one left-to-right scan suffices: it carries
    the pair's fractional survivor, if any, into a step with the next
    fractional entry. Unrolled over floats because a draw per row and round
    is the policies' hot path.
    """
    _check_simplex(p, plays)
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

