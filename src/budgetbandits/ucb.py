"""Stochastic policy: upper confidence bounds on bang-per-buck ratios.

Each arm keeps running means of its observed rewards and costs; the score of
an arm is the ratio of those means plus an exploration term that shrinks as
the arm accumulates pulls. Every round plays the K highest-scoring arms. The
exploration term's denominator can go nonpositive while an arm has few pulls;
that branch returns +inf, which forces the arm to be explored.

An episode is one loop on plain floats: each arm's pulls, means and bonus
sit in Python lists, a round takes the top K of the (-score, index) order and
plays them in ascending order, core.draw_round draws their rewards and costs
with one call into the generator, and only the played arms' means move
before every bonus is recomputed with exploration_term at the next round.
The episode is the ucb_init / ucb_select / draw_round / ucb_update loop, and
those are the stages it calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .core import (
    BanditConfig,
    EpisodeTrace,
    RoundRecord,
    StochasticEnv,
    draw_round,
    sum_in_order,
    validate_config,
)


@dataclass
class UcbState:
    """Mutable per-episode statistics, one list entry per arm.

    ``t`` is the index of the next round to play (the all-arms initialization
    round is round 1). ``exploration`` always corresponds to ``t``; entries are
    +inf while the confidence guard fails. ``suboptimal_counters`` are only
    maintained when ``oracle_arms`` is attached for instrumentation.
    """

    t: int
    plays: int
    c_min: float
    pull_counts: list[int]
    mean_reward: list[float]
    mean_cost: list[float]
    exploration: list[float]
    suboptimal_counters: list[int]
    oracle_arms: Optional[tuple[int, ...]] = None

    @property
    def upper_bounds(self) -> list[float]:
        """U_i = mean-reward/mean-cost ratio plus exploration (inf passes through)."""
        return [r / c + b for r, c, b in zip(self.mean_reward, self.mean_cost, self.exploration)]


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


def ucb_init(cfg: BanditConfig, env: StochasticEnv, rng: np.random.Generator,
             oracle_arms: Optional[Sequence[int]] = None) -> tuple[UcbState, float, float]:
    """Play all N arms together once and build the initial state.

    Returns (state, init_round_cost, init_round_gain). The caller charges the
    init round against the budget exactly like a normal round; if its cost
    already exceeds the budget the episode terminates immediately.
    """
    n = cfg.n_arms
    rewards, costs = draw_round(env, range(n), rng)
    state = UcbState(
        t=2,
        plays=cfg.plays,
        c_min=cfg.c_min,
        pull_counts=[1] * n,
        mean_reward=rewards,
        mean_cost=costs,
        exploration=[math.inf] * n,
        suboptimal_counters=[0] * n,
        oracle_arms=tuple(int(a) for a in oracle_arms) if oracle_arms is not None else None,
    )
    return state, sum_in_order(costs), sum_in_order(rewards)


def ucb_select(state: UcbState) -> list[int]:
    """Indices of the K largest upper confidence bounds, ties to lowest index,
    in ascending order."""
    # a stable sort by descending score keeps equal scores in index order
    scores = state.upper_bounds
    top = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)[:state.plays]
    return sorted(top)


def ucb_update(state: UcbState, arms: Sequence[int], rewards: Sequence[float],
               costs: Sequence[float], t_next: int,
               rng: Optional[np.random.Generator] = None) -> None:
    """Fold one round's played arms and observations into the state, in place.

    Running means move only for played arms; exploration is recomputed for all
    arms at ``t_next``. When an oracle arm set is attached and this round was
    suboptimal, the played arm with the smallest counter is incremented, ties
    broken uniformly at random from the episode's stream.
    """
    pulls, mean_r, mean_c = state.pull_counts, state.mean_reward, state.mean_cost
    for j, r, c in zip(arms, rewards, costs):
        n = pulls[j] + 1
        pulls[j] = n
        mean_r[j] += (r - mean_r[j]) / n
        mean_c[j] += (c - mean_c[j]) / n
    state.t = t_next
    plays, c_min = state.plays, state.c_min
    state.exploration = [exploration_term(n, t_next, plays, c_min) for n in pulls]
    if state.oracle_arms is not None and set(arms) != set(state.oracle_arms):
        counters = state.suboptimal_counters
        least = min(counters[j] for j in arms)
        lowest = [j for j in arms if counters[j] == least]
        if len(lowest) == 1:
            j = lowest[0]
        else:
            if rng is None:
                raise ValueError("rng required to break counter ties")
            j = lowest[rng.integers(len(lowest))]
        counters[j] += 1


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
    state, cost, reward = ucb_init(cfg, env, rng, oracle_arms)
    arms = tuple(range(cfg.n_arms))
    rewards, costs = state.mean_reward[:], state.mean_cost[:]
    t, remaining = 1, cfg.budget
    while True:
        remaining = trace.play(t, cost, reward, remaining)
        if record:
            trace.rounds.append(RoundRecord(t, arms, np.array(rewards), np.array(costs),
                                            None, remaining))
        if trace.stopping_time:
            return trace
        if t > 1:
            ucb_update(state, arms, rewards, costs, t + 1, rng)
        t += 1
        arms = tuple(ucb_select(state))
        rewards, costs = draw_round(env, arms, rng)
        cost, reward = sum_in_order(costs), sum_in_order(rewards)
