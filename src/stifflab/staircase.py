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

import enum
import math
from dataclasses import dataclass

from .plant import DeviceConfig, TrajectoryConfig


class Direction(str, enum.Enum):
    NONE = "none"
    UP = "up"
    DOWN = "down"


class StaircaseError(ValueError):
    """Base class for staircase misuse."""


class InvalidConfigError(StaircaseError):
    pass


class TerminatedError(StaircaseError):
    """record_response was called on a finished staircase."""


class NotTerminatedError(StaircaseError):
    """threshold_estimate was called before termination."""


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
            raise InvalidConfigError("reference_stiffness must be positive")
        if self.up_step <= 0:
            raise InvalidConfigError("up_step must be positive")
        if not 0 < self.down_up_ratio <= 1:
            raise InvalidConfigError("down_up_ratio must be in (0, 1]")
        if self.down_rule < 1:
            raise InvalidConfigError("down_rule must be at least 1")
        if self.reversals_averaged > self.reversal_limit:
            raise InvalidConfigError("reversals_averaged exceeds reversal_limit")
        if not 0 < self.level_floor <= self.initial_level <= self.level_cap:
            raise InvalidConfigError(
                "need 0 < level_floor <= initial_level <= level_cap"
            )
        if not math.isfinite(self.level_cap):  # the default cap can overflow
            raise InvalidConfigError(f"level_cap must be finite, got {self.level_cap}")

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


@dataclass(frozen=True)
class ReversalRecord:
    trial_index: int
    level_at_reversal: float
    new_direction: Direction


@dataclass(frozen=True)
class StaircaseState:
    level: float
    consecutive_correct: int
    last_move_direction: Direction
    reversals: tuple[ReversalRecord, ...]
    trial_index: int
    terminated: bool


@dataclass(frozen=True)
class ThresholdEstimate:
    absolute: float
    percent_of_reference: float


def new_staircase(config: StaircaseConfig) -> StaircaseState:
    return StaircaseState(
        level=config.initial_level,
        consecutive_correct=0,
        last_move_direction=Direction.NONE,
        reversals=(),
        trial_index=0,
        terminated=False,
    )


def _opposite(direction: Direction) -> Direction:
    return Direction.UP if direction is Direction.DOWN else Direction.DOWN


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
    if state.terminated:
        raise TerminatedError("staircase already terminated")

    consecutive = state.consecutive_correct
    intended: Direction | None = None
    if correct:
        consecutive += 1
        if consecutive >= config.down_rule:
            intended = Direction.DOWN
            consecutive = 0
    else:
        intended = Direction.UP
        consecutive = 0

    trial_index = state.trial_index + 1
    if intended is None:
        return StaircaseState(state.level, consecutive, state.last_move_direction,
                              state.reversals, trial_index, terminated=False)

    if intended is Direction.DOWN:
        target = state.level - config.down_step
    else:
        target = state.level + config.up_step
    new_level = min(max(target, config.level_floor), config.level_cap)

    moved = intended
    if new_level == state.level and state.last_move_direction is not Direction.NONE:
        moved = _opposite(state.last_move_direction)

    reversals = state.reversals
    if state.last_move_direction is not Direction.NONE and moved is not state.last_move_direction:
        reversals = reversals + (
            ReversalRecord(
                trial_index=state.trial_index,
                level_at_reversal=state.level,
                new_direction=moved,
            ),
        )

    return StaircaseState(
        level=new_level,
        consecutive_correct=consecutive,
        last_move_direction=moved,
        reversals=reversals,
        trial_index=trial_index,
        terminated=len(reversals) >= config.reversal_limit,
    )


def threshold_estimate(
    state: StaircaseState, config: StaircaseConfig
) -> ThresholdEstimate:
    """Mean level over the final ``reversals_averaged`` reversal records."""
    if not state.terminated:
        raise NotTerminatedError(
            f"staircase has {len(state.reversals)} of "
            f"{config.reversal_limit} reversals"
        )
    tail = state.reversals[-config.reversals_averaged:]
    absolute = sum(r.level_at_reversal for r in tail) / len(tail)
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
        raise InvalidConfigError("down_rule >= 1 and down_up_ratio > 0 required")
    return (1.0 / (1.0 + down_up_ratio)) ** (1.0 / down_rule)
