"""Simulated single-joint stiffness-discrimination experiments.

Weighted 1-up/3-down staircases over virtual torsion springs, simulated
observers, a 1-DoF forearm/device plant, a synthetic-EMG envelope pipeline,
and a deterministic, replayable session runner.
"""

from .observer import (
    BernoulliObserver,
    SdtObserver,
    WeibullObserver,
    alpha_for_target,
    d_prime,
    inverse_normal_cdf,
)
from .session import (
    SessionConfig,
    SessionResult,
    config_from_dict,
    replay,
    run_session,
)
from .staircase import (
    StaircaseConfig,
    StaircaseState,
    convergence_target,
    default_config,
    new_staircase,
    record_response,
    threshold_estimate,
)

__version__ = "0.1.0"
