"""Budget-constrained multi-armed bandits with multiple plays.

Exactly K of N arms are played each round; each played arm reveals a reward
in [0, 1] and a cost in [c_min, 1], and the episode ends when a round's cost
exceeds the remaining budget. The package provides the stochastic
confidence-bound policy, the adversarial exponential-weights family (budgeted,
doubling-trick, and high-probability variants), exact regret oracles,
closed-form bound calculators, and a replication harness with a CLI.
"""

from .core import (
    AdversarialEnv,
    BanditConfig,
    ConfigError,
    EpisodeTrace,
    Family,
    SequenceExhausted,
    StochasticEnv,
    default_t_max,
    env_from_dict,
    env_to_dict,
    episode_rng,
    validate_config,
)
from .sampling import dependent_rounding
from .ucb import UcbState, exploration_term, ucb_init, ucb_run_episode, ucb_select, ucb_update
from .exp3 import (
    Exp3State,
    HighProbParams,
    Variant,
    epoch_threshold,
    exp31mb_run,
    exp3mb_run_episode,
    exp3pm_parameters,
    exp3pm_run,
    exp3pmb_parameters,
    exp3pmb_run,
    tune_gamma_mb,
)
from .bounds import (
    BoundValue,
    LowerBound,
    StochasticBoundParams,
    bang_per_buck_gaps,
    make_lower_bound_env,
    prop1_bound,
    thm1_bound,
    thm2_bound,
    thm3_lower_bound,
    thm4_bound,
    thm5_bound,
    tuned_eps,
)
from .harness import (
    LowerBoundSpec,
    PolicySpec,
    RegretReport,
    RunSpec,
    oracle_gain_adversarial,
    oracle_gain_fixed_horizon,
    oracle_gain_stochastic,
    run_replications,
    simulate_fixed_subset,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
