"""Stochastic policy: upper confidence bounds on bang-per-buck ratios.

Each arm keeps running means of its observed rewards and costs; the score of
an arm is the ratio of those means plus an exploration term that shrinks as
the arm accumulates pulls. Every round plays the K highest-scoring arms. The
exploration term's denominator can go nonpositive while an arm has few pulls;
that branch returns +inf, which forces the arm to be explored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    BanditConfig,
    EpisodeTrace,
    RoundOutcome,
    RoundRecord,
    StochasticEnv,
    sample_round,
    validate_config,
)


@dataclass
class UcbState:
    """Mutable per-episode statistics.

    ``t`` is the index of the next round to play (the all-arms initialization
    round is round 1). ``exploration`` always corresponds to ``t``; entries are
    +inf while the confidence guard fails. ``suboptimal_counters`` are only
    maintained when ``oracle_arms`` is attached for instrumentation.
    """

    t: int
    plays: int
    c_min: float
    pull_counts: np.ndarray
    mean_reward: np.ndarray
    mean_cost: np.ndarray
    exploration: np.ndarray
    suboptimal_counters: np.ndarray
    oracle_arms: Optional[tuple[int, ...]] = None

    @property
    def upper_bounds(self) -> np.ndarray:
        """U_i = mean-reward/mean-cost ratio plus exploration (inf passes through)."""
        return self.mean_reward / self.mean_cost + self.exploration


def exploration_term(pulls: int, t: int | float, plays: int, c_min: float) -> float:
    """Exploration bonus for an arm with ``pulls`` observations at round ``t``.

    Returns sqrt((K+1) log t / n) (1 + 1/c_min) / (c_min - sqrt((K+1) log t / n))
    while c_min exceeds the inner square root, else +inf (infinite optimism,
    forcing further exploration of the arm).
    """
    eps = math.sqrt((plays + 1) * math.log(t) / pulls)
    if c_min > eps:
        return eps * (1.0 + 1.0 / c_min) / (c_min - eps)
    return math.inf


def _exploration_vector(pulls: np.ndarray, t: int, plays: int, c_min: float) -> np.ndarray:
    eps = np.sqrt((plays + 1) * math.log(t) / pulls)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = eps * (1.0 + 1.0 / c_min) / (c_min - eps)
    return np.where(c_min > eps, value, np.inf)


def ucb_init(cfg: BanditConfig, env: StochasticEnv, rng: np.random.Generator,
             oracle_arms: Optional[Sequence[int]] = None) -> tuple[UcbState, float, float]:
    """Play all N arms together once and build the initial state.

    Returns (state, init_round_cost, init_round_gain). The caller charges the
    init round against the budget exactly like a normal round; if its cost
    already exceeds the budget the episode terminates immediately.
    """
    n = cfg.n_arms
    outcome = sample_round(env, range(n), rng)
    state = UcbState(
        t=2,
        plays=cfg.plays,
        c_min=cfg.c_min,
        pull_counts=np.ones(n, dtype=np.int64),
        mean_reward=outcome.rewards.copy(),
        mean_cost=outcome.costs.copy(),
        exploration=np.full(n, np.inf),
        suboptimal_counters=np.zeros(n, dtype=np.int64),
        oracle_arms=tuple(int(a) for a in oracle_arms) if oracle_arms is not None else None,
    )
    return state, outcome.cost, outcome.reward


def ucb_select(state: UcbState) -> np.ndarray:
    """Indices of the K largest upper confidence bounds, ties to lowest index."""
    scores = state.upper_bounds
    order = np.lexsort((np.arange(scores.shape[0]), -scores))
    return np.sort(order[: state.plays])


def ucb_update(state: UcbState, outcome: RoundOutcome, t_next: int,
               rng: Optional[np.random.Generator] = None) -> UcbState:
    """Fold one round's observations into the state, in place.

    Running means move only for played arms; exploration is recomputed for all
    arms at ``t_next``. When an oracle arm set is attached and this round was
    suboptimal, the played arm with the smallest counter is incremented, ties
    broken uniformly at random from the episode's stream.
    """
    arms = np.asarray(outcome.arms, dtype=np.intp)
    n = state.pull_counts[arms] + 1
    state.pull_counts[arms] = n
    state.mean_reward[arms] += (outcome.rewards - state.mean_reward[arms]) / n
    state.mean_cost[arms] += (outcome.costs - state.mean_cost[arms]) / n
    state.t = t_next
    state.exploration = _exploration_vector(state.pull_counts, t_next, state.plays, state.c_min)
    if state.oracle_arms is not None and set(outcome.arms) != set(state.oracle_arms):
        counters = state.suboptimal_counters[arms]
        lowest = arms[counters == counters.min()]
        if lowest.size == 1:
            j = int(lowest[0])
        else:
            if rng is None:
                raise ValueError("rng required to break counter ties")
            j = int(lowest[rng.integers(lowest.size)])
        state.suboptimal_counters[j] += 1
    return state


def ucb_run_episode(cfg: BanditConfig, env: StochasticEnv, rng: np.random.Generator,
                    oracle_arms: Optional[Sequence[int]] = None,
                    record: bool = True) -> EpisodeTrace:
    """Run one full episode and return its trace.

    Loop: select the K best arms, observe, terminate if the round's cost
    exceeds the remaining budget (without crediting that round), otherwise pay,
    credit, and update. The all-arms initialization is round 1 and is charged
    identically. Attaching ``oracle_arms`` keeps the suboptimal-play counters,
    whose tie-break draws from ``rng``: the episode then differs from one
    without them.
    """
    validate_config(cfg)
    if env.n_arms != cfg.n_arms:
        raise ValueError("environment arm count does not match config")
    trace = EpisodeTrace(0.0, 0, 0.0)
    state, _, _ = ucb_init(cfg, env, rng, oracle_arms)
    t, remaining = 1, cfg.budget
    outcome = RoundOutcome(tuple(range(cfg.n_arms)), state.mean_reward.copy(),
                           state.mean_cost.copy())
    while True:
        remaining = trace.play(t, outcome.cost, outcome.reward, remaining)
        if record:
            trace.rounds.append(RoundRecord(t, outcome.arms, outcome.rewards, outcome.costs,
                                            None, remaining))
        if trace.stopping_time:
            return trace
        if t > 1:
            ucb_update(state, outcome, t + 1, rng)
        t = state.t
        outcome = sample_round(env, ucb_select(state), rng)
