"""Weighted 1-up/N-down fixed-step staircase for threshold tracking.

The staircase tracks a stiffness difference (delta-k, mNm/deg) between a
comparison and a reference torsion spring.  After every incorrect response
the level moves up by a fixed step; after ``down_rule`` consecutive correct
responses it moves down by ``down_up_ratio`` times that step.  The run ends
once a fixed number of reversals has accumulated, and the threshold is the
mean level over the last few reversals.

All operations are pure: they return new state values and never mutate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .config import ConfigError
from .plant import DeviceConfig, TrajectoryConfig


@dataclass(frozen=True)
class StaircaseConfig:
    """Parameters of the weighted up-down rule.

    Levels are stiffness differences in mNm/deg.  ``down_up_ratio`` scales
    the down step relative to ``up_step``.
    """

    reference_stiffness: float
    initial_level: float
    up_step: float
    down_up_ratio: float
    down_rule: int
    reversal_limit: int
    reversals_averaged: int
    level_floor: float
    level_cap: float

    def __post_init__(self):
        if self.reference_stiffness <= 0:
            raise ConfigError("reference_stiffness must be positive")
        if self.up_step <= 0:
            raise ConfigError("up_step must be positive")
        if not 0 < self.down_up_ratio <= 1:
            raise ConfigError("down_up_ratio must be in (0, 1]")
        if self.down_rule < 1:
            raise ConfigError("down_rule must be at least 1")
        if self.reversals_averaged > self.reversal_limit:
            raise ConfigError("reversals_averaged exceeds reversal_limit")
        if not 0 < self.level_floor <= self.initial_level <= self.level_cap:
            raise ConfigError(
                "need 0 < level_floor <= initial_level <= level_cap"
            )
        if not math.isfinite(self.level_cap):  # the default cap can overflow
            raise ConfigError(f"level_cap must be finite, got {self.level_cap}")

    @property
    def down_step(self) -> float:
        return self.down_up_ratio * self.up_step


def default_config(
    reference_stiffness: float,
    torque_limit: float = DeviceConfig.torque_limit,
    amplitude: float = TrajectoryConfig.amplitude,
    **overrides,
) -> StaircaseConfig:
    """Standard configuration for a given reference stiffness.

    Start level equals the reference (comparison spring at twice the
    reference), up step is 10% of the reference, down/up ratio 0.7393,
    three-down rule, ten reversals with the last eight averaged.  The floor
    is one down step above zero so the pair never becomes identical; the cap
    is set by the torque the device can render at full deflection.

    Keyword ``overrides`` replace any of these; the floor follows an
    overridden up step or ratio unless it is overridden itself.
    """
    up_step = overrides.get("up_step", 0.1 * reference_stiffness)
    ratio = overrides.get("down_up_ratio", 0.7393)
    params = {
        "initial_level": reference_stiffness,
        "up_step": up_step,
        "down_up_ratio": ratio,
        "down_rule": 3,
        "reversal_limit": 10,
        "reversals_averaged": 8,
        "level_floor": ratio * up_step,
        "level_cap": torque_limit / amplitude - reference_stiffness,
    }
    params.update(overrides)
    return StaircaseConfig(reference_stiffness=reference_stiffness, **params)


class StaircaseState(NamedTuple):
    """One staircase's state; a NamedTuple, which is cheaper to build on
    every trial than a frozen dataclass and as immutable."""

    level: float
    consecutive_correct: int
    last_move_direction: str  # "none" before the first move, then "up" or "down"
    reversals: tuple[float, ...]  # the level at each reversal
    trial_index: int
    terminated: bool
    # the tail: responses recorded once the state had two reversals
    tail_correct: int = 0
    tail_total: int = 0


@dataclass(frozen=True)
class ThresholdEstimate:
    absolute: float
    percent_of_reference: float


def new_staircase(config: StaircaseConfig) -> StaircaseState:
    return StaircaseState(
        level=config.initial_level,
        consecutive_correct=0,
        last_move_direction="none",
        reversals=(),
        trial_index=0,
        terminated=False,
    )


def record_response(
    state: StaircaseState, correct: bool, config: StaircaseConfig
) -> StaircaseState:
    """Apply one trial's response and return the next state.

    Reversal levels are the level *before* the direction-changing move (the
    local extremum).  Moves clamped at a bound still count toward direction
    logic; a move that cannot change the level at all (already at a bound)
    is recorded as a bounce in the opposite direction, so reversals keep
    accumulating at the floor or cap instead of deadlocking.
    """
    level, consecutive, last, reversals, trial, terminated, tail_correct, tail_total = state
    if terminated:
        raise ValueError("staircase already terminated")

    in_tail = len(reversals) >= 2
    tail_correct += in_tail and correct
    tail_total += in_tail
    if correct:
        consecutive += 1
        if consecutive < config.down_rule:
            return StaircaseState(level, consecutive, last, reversals, trial + 1, False,
                                  tail_correct, tail_total)
        intended = "down"
        target = level - config.down_step
    else:
        intended = "up"
        target = level + config.up_step
    new_level = min(max(target, config.level_floor), config.level_cap)

    moved = intended
    if new_level == level and last != "none":
        moved = "up" if last == "down" else "down"  # a bounce off the bound

    if last != "none" and moved != last:
        reversals = reversals + (level,)

    return StaircaseState(new_level, 0, moved, reversals, trial + 1,
                          len(reversals) >= config.reversal_limit, tail_correct, tail_total)


def threshold_estimate(
    state: StaircaseState, config: StaircaseConfig
) -> ThresholdEstimate:
    """Mean level over the final ``reversals_averaged`` reversals."""
    if not state.terminated:
        raise ValueError(
            f"staircase has {len(state.reversals)} of "
            f"{config.reversal_limit} reversals"
        )
    tail = state.reversals[-config.reversals_averaged:]
    absolute = sum(tail) / len(tail)
    return ThresholdEstimate(
        absolute=absolute,
        percent_of_reference=100.0 * absolute / config.reference_stiffness,
    )


def convergence_target(down_rule: int, down_up_ratio: float) -> float:
    """Proportion correct at which the weighted rule has zero drift.

    Solves p^n * step_down = (1 - p^n) * step_up for p, i.e. the level at
    which expected downward and upward movement cancel:
    p = (1 / (1 + ratio)) ** (1 / n).
    """
    if down_rule < 1 or down_up_ratio <= 0:
        raise ConfigError("down_rule >= 1 and down_up_ratio > 0 required")
    return (1.0 / (1.0 + down_up_ratio)) ** (1.0 / down_rule)
