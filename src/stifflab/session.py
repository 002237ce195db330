"""Experiment orchestration with an append-only, replayable event log.

A session runs one adaptive staircase per exploration velocity, in an order
shuffled from the seed.  Every trial presents a reference and a comparison
spring in random order, simulates one out-and-back exploration per interval
(repeating rejected explorations without advancing the staircase), asks the
observer for a Same/Different response, and feeds correctness into the
staircase.  Every state change is an event; the full result is recomputable
from the log alone, including manual response amendments.  The runner and
``replay`` fold events through the same step function, ``_apply``, so a
replayed log gives the runner's result by construction.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .observer import observer_from_config
from .plant import (
    DeviceConfig,
    LimbConfig,
    SpringParam,
    TrajectoryPlan,
    achieved_velocity_ok,
    simulate_exploration,
)
from .staircase import (
    InvalidConfigError,
    StaircaseConfig,
    StaircaseState,
    ThresholdEstimate,
    default_config,
    new_staircase,
    record_response,
    threshold_estimate,
)

_JSON = json.JSONEncoder(sort_keys=True)  # one line of the event log
_raw_decode = json.JSONDecoder().raw_decode  # a line as json.loads reads it, bar padding

TRAINING_DURATION_S = 120.0
BREAK_DURATION_S = 300.0
RESPONSE_DURATION_S = 1.0


class ConfigError(ValueError):
    pass


class RepeatLimitError(RuntimeError):
    """An interval kept failing the velocity check past the repeat cap."""


class CorruptLogError(ValueError):
    def __init__(self, message: str, seq: int | None = None):
        super().__init__(message if seq is None else f"seq {seq}: {message}")
        self.seq = seq


@dataclass(frozen=True)
class VelocityCondition:
    bpm: float
    deg_s: float


@dataclass(frozen=True)
class SessionConfig:
    seed: int
    reference_stiffness: float
    staircase: StaircaseConfig
    velocities: tuple[VelocityCondition, ...]
    limb: LimbConfig
    device: DeviceConfig
    observer: dict
    trajectory_amplitude: float = 90.0
    led_window: float = 2.5
    velocity_tolerance: float = 5.0
    catch_trial_rate: float = 0.0
    plant_mode: str = "full"  # "full" simulates the plant, "ideal" skips it
    repeat_cap: int = 5

    def __post_init__(self):
        if not self.velocities:
            raise ConfigError("velocities must be nonempty")
        if not 0.0 <= self.catch_trial_rate < 1.0:
            raise ConfigError("catch_trial_rate must be in [0, 1)")
        if not 0.0 <= self.velocity_tolerance < math.inf:
            raise ConfigError("velocity_tolerance must be nonnegative and finite")
        if self.plant_mode not in ("full", "ideal"):
            raise ConfigError(f"unknown plant_mode: {self.plant_mode!r}")
        if self.repeat_cap < 1:
            raise ConfigError("repeat_cap must be at least 1")
        with _section("trajectory"):
            for condition in self.velocities:
                _plan(self, condition)


def _plan(config: SessionConfig, condition: VelocityCondition) -> TrajectoryPlan:
    """The trajectory every exploration at ``condition`` follows."""
    return TrajectoryPlan(
        amplitude=config.trajectory_amplitude,
        beat_duration=60.0 / condition.bpm,
        sample_rate=config.device.control_rate,
        led_window=config.led_window,
    )


class Event(NamedTuple):
    seq: int
    kind: str
    t_wall: float  # simulated session clock, seconds
    payload: dict

    def to_dict(self) -> dict:
        return {"seq": self.seq, "kind": self.kind,
                "t_wall": self.t_wall, "payload": self.payload}


@dataclass(frozen=True)
class RunResult:
    velocity: float
    threshold: ThresholdEstimate
    trial_count: int
    reversal_levels: tuple[float, ...]
    proportion_correct_tail: float | None  # None when no trials followed reversal 2


@dataclass(frozen=True)
class SessionResult:
    runs: tuple[RunResult, ...]
    velocity_order: tuple[float, ...]
    log_digest: str


class TrialRow(NamedTuple):
    """One staircase trial: what was presented and what it did."""

    trial: int
    level: float     # stiffness difference presented, mNm/deg
    response: str
    reversal: bool   # the response reversed the staircase


@dataclass(frozen=True)
class SessionRun:
    """Result of an executed session plus its serialized event log."""

    result: SessionResult
    log_text: str
    trials: tuple[tuple[TrialRow, ...], ...]  # per run, in executed order


_OPTION_KEYS = ("velocity_tolerance", "catch_trial_rate", "plant_mode", "repeat_cap")
_TOP_KEYS = {"seed", "reference_stiffness", "staircase", "velocities",
             "trajectory", "limb", "device", "observer", *_OPTION_KEYS}
_STAIRCASE_KEYS = {  # key -> type it is read as
    "initial_level": float, "up_step": float, "down_up_ratio": float,
    "down_rule": int, "reversal_limit": int, "reversals_averaged": int,
    "level_floor": float, "level_cap": float,
}
_TRAJECTORY_KEYS = {"amplitude", "led_window"}
_LIMB_KEYS = {"inertia", "damping", "tracking_stiffness_gain",
              "tracking_damping_gain", "motor_noise_std", "muscle_torque_max"}
_DEVICE_KEYS = {"encoder_counts_per_rev", "torque_limit", "control_rate"}
_VELOCITY_KEYS = {"bpm", "deg_s"}
_DEFAULTS = {f.name: f.default for f in fields(SessionConfig)
             if f.default is not MISSING}


def _reject_unknown(d: dict, allowed, where: str) -> None:
    unknown = sorted(d.keys() - allowed)
    if unknown:
        raise ConfigError(f"unknown key in {where}: {unknown[0]!r}")


def _option(section: dict, where: str, name: str | None = None):
    """The value at config path ``where`` (in ``section``, under the path's
    last key) read as the type of the default of SessionConfig's field
    ``name`` (that key when not given), or else that default.  An int field
    takes only an integral number, a float field only a finite number."""
    key = where.rpartition(".")[2]
    default = _DEFAULTS[name or key]
    value = section.get(key, default)
    if type(default) is int:
        return _integer(value, where)
    if type(default) is float:
        return float(_finite(value, where))
    return type(default)(value)


def _integer(value, where: str) -> int:
    """An integer field takes only integral numbers: 3.0 reads as 3, while
    2.9 is an error rather than a silent 2 (a 2-down rule, say)."""
    if type(value) is int or type(value) is float and value.is_integer():
        return int(value)
    raise ConfigError(f"{where} must be an integer, got {value!r}")


def _finite(value, where: str):
    """A float field takes only a finite number: no string, NaN or infinity
    (JSON's NaN and Infinity read as floats).  Returns the value as given."""
    if type(value) in (int, float) and abs(value) <= sys.float_info.max:
        return value
    raise ConfigError(f"{where} must be a finite number, got {value!r}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be a JSON object, got {value!r}")
    return dict(value)


def _reject_booleans(value, where: str) -> None:
    """No config field is true or false, and a number check would take them
    as 1 and 0 (``limb.inertia: true`` as an inertia of 1)."""
    if isinstance(value, bool):
        raise ConfigError(f"{where} must not be a boolean, got {value!r}")
    if isinstance(value, dict):
        for key, item in value.items():
            _reject_booleans(item, f"{where}.{key}" if where else str(key))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            _reject_booleans(item, f"{where}[{index}]")


@contextmanager
def _section(where: str):
    """Turn the validation error of a sub-object built inside the block (a
    ValueError such as ObserverConfigError, or a TypeError from a wrongly
    typed value) into a ConfigError naming the config section."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from None


def config_from_dict(raw: dict) -> SessionConfig:
    """Parse and validate a session config document; unknown keys rejected."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    _reject_unknown(raw, _TOP_KEYS, "config")
    _reject_booleans(raw, "")
    try:
        seed = _integer(raw["seed"], "seed")
        reference = float(_finite(raw["reference_stiffness"], "reference_stiffness"))
        velocities_raw = raw["velocities"]
        observer = _object(raw["observer"], "observer")
    except KeyError as exc:
        raise ConfigError(f"missing required key: {exc.args[0]!r}") from None
    if seed < 0:  # NumPy would refuse it only at run time
        raise ConfigError(f"seed must be a nonnegative integer, got {seed}")
    if reference <= 0.0:
        raise ConfigError(f"reference_stiffness must be positive, got {reference}")

    stair_raw = _object(raw.get("staircase", {}), "staircase")
    _reject_unknown(stair_raw, _STAIRCASE_KEYS, "staircase")
    traj_raw = _object(raw.get("trajectory", {}), "trajectory")
    _reject_unknown(traj_raw, _TRAJECTORY_KEYS, "trajectory")
    amplitude = _option(traj_raw, "trajectory.amplitude", "trajectory_amplitude")
    led_window = _option(traj_raw, "trajectory.led_window")
    device_raw = _object(raw.get("device", {}), "device")
    _reject_unknown(device_raw, _DEVICE_KEYS, "device")
    with _section("device"):
        device = DeviceConfig(**{
            key: _integer(value, f"device.{key}") if key == "encoder_counts_per_rev"
            else _finite(value, f"device.{key}") for key, value in device_raw.items()})
    limb_raw = _object(raw.get("limb", {}), "limb")
    _reject_unknown(limb_raw, _LIMB_KEYS, "limb")
    with _section("limb"):
        limb = LimbConfig(**{key: _finite(value, f"limb.{key}")
                             for key, value in limb_raw.items()})
    with _section("staircase"):
        staircase = default_config(
            reference, device.torque_limit, amplitude,
            **{key: _integer(value, f"staircase.{key}")
               if _STAIRCASE_KEYS[key] is int
               else float(_finite(value, f"staircase.{key}"))
               for key, value in stair_raw.items()})

    if not isinstance(velocities_raw, list):
        raise ConfigError(f"velocities must be a JSON array, got {velocities_raw!r}")
    velocities = []
    for index, entry in enumerate(velocities_raw):
        where = f"velocities[{index}]"
        entry = _object(entry, where)
        _reject_unknown(entry, _VELOCITY_KEYS, "velocities")
        if "bpm" not in entry:
            raise ConfigError("missing required key in velocities: 'bpm'")
        bpm = float(_finite(entry["bpm"], f"{where}.bpm"))
        if bpm <= 0.0:
            raise ConfigError(f"{where}.bpm must be positive, got {bpm}")
        deg_s = float(_finite(entry.get("deg_s", amplitude * bpm / 60.0),
                              f"{where}.deg_s"))
        # runs, summary rows and velocity_scaling are keyed by deg_s
        if any(v.deg_s == deg_s for v in velocities):
            raise ConfigError(f"velocities: deg_s {deg_s} appears twice")
        velocities.append(VelocityCondition(bpm=bpm, deg_s=deg_s))

    scaling = _object(observer.get("velocity_scaling", {}), "observer.velocity_scaling")
    for key, value in observer.items():
        if key not in ("family", "velocity_scaling"):  # the rest are numbers
            _finite(value, f"observer.{key}")
    # a scaling key is looked up by exact velocity: one naming no configured
    # velocity would silently leave that velocity unscaled
    configured = {v.deg_s for v in velocities}
    for key, value in scaling.items():
        _finite(value, f"observer.velocity_scaling.{key}")
        try:
            matched = float(key) in configured
        except ValueError:
            matched = False
        if not matched:
            raise ConfigError(f"observer.velocity_scaling key {key!r} matches no "
                              f"configured deg_s {sorted(configured)}")
    with _section("observer"):
        observer_from_config(observer)  # validate now, construct again at run time
    return SessionConfig(
        seed=seed,
        reference_stiffness=reference,
        staircase=staircase,
        velocities=tuple(velocities),
        limb=limb,
        device=device,
        observer=observer,
        trajectory_amplitude=amplitude,
        led_window=led_window,
        **{key: _option(raw, key) for key in _OPTION_KEYS},
    )


def config_to_dict(config: SessionConfig) -> dict:
    stair = asdict(config.staircase)
    stair.pop("reference_stiffness")
    return {
        "seed": config.seed,
        "reference_stiffness": config.reference_stiffness,
        "staircase": stair,
        "velocities": [asdict(v) for v in config.velocities],
        "trajectory": {"amplitude": config.trajectory_amplitude,
                       "led_window": config.led_window},
        "limb": asdict(config.limb),
        "device": asdict(config.device),
        "observer": config.observer,
        **{key: getattr(config, key) for key in _OPTION_KEYS},
    }


def default_config_dict(seed: int = 0, plant_mode: str = "full") -> dict:
    """Config document for the standard two-velocity protocol."""
    return {
        "seed": seed,
        "reference_stiffness": 1.11,
        "velocities": [{"bpm": 45, "deg_s": 67.5}, {"bpm": 75, "deg_s": 112.5}],
        "observer": {
            "family": "weibull",
            "alpha": 1.3,
            "beta": 3.0,
            "gamma": 0.05,
            "lapse": 0.02,
            "velocity_scaling": {"67.5": 1.0, "112.5": 0.847},
        },
        "plant_mode": plant_mode,
    }


class _Run(NamedTuple):
    """The active run: its staircase and the bookkeeping beside it."""

    stair: StaircaseConfig
    velocity: float
    state: StaircaseState
    trial_count: int = 0
    tail_correct: int = 0
    tail_total: int = 0  # staircase responses after the second reversal
    rows: tuple[TrialRow, ...] = ()


class _Fold(NamedTuple):
    """Everything recomputable from the events applied so far."""

    run: _Run | None = None  # None between runs
    runs: tuple[RunResult, ...] = ()
    trials: tuple[tuple[TrialRow, ...], ...] = ()  # rows of each finished run


def _is_correct(response: str, catch: bool) -> bool:
    return response == ("same" if catch else "different")


def _apply(fold: _Fold, event: Event) -> _Fold:
    """Fold one event into the session's recomputable state.

    RunStarted, Responded and RunTerminated carry the information; every
    other kind records what they imply and leaves the state as it is.  A run
    yields its RunResult on the response that terminates its staircase.
    """
    kind, payload, run = event.kind, event.payload, fold.run
    if kind == "Responded":
        if run is None or run.state.terminated:
            raise CorruptLogError("response outside an active run", event.seq)
        if payload["catch"]:
            return fold  # catch trials never drive the staircase
        response = payload["response"]
        correct = response == "different"  # _is_correct on a staircase trial
        before = run.state
        tail = len(before.reversals) >= 2
        state = record_response(before, correct, run.stair)
        row = TrialRow(before.trial_index, before.level, response,
                       len(state.reversals) > len(before.reversals))
        run = _Run(run.stair, run.velocity, state, run.trial_count + 1,
                   run.tail_correct + (tail and correct),
                   run.tail_total + tail, run.rows + (row,))
        if not state.terminated:
            return _Fold(run, fold.runs, fold.trials)
        result = RunResult(
            velocity=run.velocity,
            threshold=threshold_estimate(state, run.stair),
            trial_count=run.trial_count,
            reversal_levels=tuple(r.level_at_reversal for r in state.reversals),
            proportion_correct_tail=run.tail_correct / run.tail_total
            if run.tail_total else None,
        )
        return _Fold(run, fold.runs + (result,), fold.trials + (run.rows,))
    if kind == "RunStarted":
        if run is not None:
            raise CorruptLogError("run started inside another run", event.seq)
        stair = StaircaseConfig(**payload["staircase"])
        run = _Run(stair, payload["velocity_deg_s"], new_staircase(stair))
        return fold._replace(run=run)
    if kind == "RunTerminated":
        if run is None or not run.state.terminated:
            raise CorruptLogError("run terminated before the staircase did",
                                  event.seq)
        return fold._replace(run=None)
    if kind == "SessionEnded" and run is not None:
        raise CorruptLogError("session ended inside a run", event.seq)
    return fold


def _session_result(fold: _Fold, log_text: str) -> SessionResult:
    return SessionResult(runs=fold.runs,
                         velocity_order=tuple(r.velocity for r in fold.runs),
                         log_digest=_digest(log_text))


class _Recorder:
    """Monotone event sink with a simulated wall clock; every event it
    emits is folded into ``fold``."""

    def __init__(self):
        self.events: list[Event] = []
        self.clock = 0.0
        self.fold = _Fold()

    def emit(self, kind: str, payload: dict) -> None:
        event = Event(seq=len(self.events), kind=kind,
                      t_wall=self.clock, payload=payload)
        self.events.append(event)
        self.fold = _apply(self.fold, event)


class _Exploration(NamedTuple):
    """What a session reads of one simulated exploration."""

    accepted: bool  # passed the achieved-velocity check
    digest: str     # the recording's digest when accepted, else ""
    achieved_mean_velocity: float
    led_events: int


def _explore(spring: SpringParam, plan: TrajectoryPlan, config: SessionConfig,
             rng: np.random.Generator, memo: dict) -> _Exploration:
    """Simulate one exploration, or recall it from ``memo``.

    Without motor noise the plant draws no random numbers, so an exploration
    is a pure function of its frozen inputs: ``memo`` maps (spring, plan,
    limb, device, velocity tolerance) to its outcome, and each is simulated
    once per memo.  Noisy explorations are always simulated, never stored.
    """
    key = None
    if config.limb.motor_noise_std == 0:
        key = (spring, plan, config.limb, config.device, config.velocity_tolerance)
        known = memo.get(key)
        if known is not None:
            return known
    recording = simulate_exploration(spring, plan, config.limb, config.device, rng)
    accepted = achieved_velocity_ok(recording, plan, config.velocity_tolerance)
    outcome = _Exploration(accepted, recording.digest() if accepted else "",
                           float(recording.achieved_mean_velocity),
                           len(recording.led_events))
    if key is not None:
        memo[key] = outcome
    return outcome


def _run_intervals(
    springs: tuple[float, float],
    config: SessionConfig,
    plan: TrajectoryPlan,
    rec: _Recorder,
    rng: np.random.Generator,
    trial_index: int,
    memo: dict,
) -> list[str]:
    """Simulate both intervals, repeating rejected explorations.

    Returns the accepted recordings' digests.  The staircase is untouched by
    rejections; only the faulty interval is repeated.
    """
    exploration_time = 2.0 * plan.beat_duration
    digests = []
    for interval, k in enumerate(springs):
        if config.plant_mode == "ideal":
            rec.clock += exploration_time
            digests.append("ideal")
            continue
        for attempt in range(1, config.repeat_cap + 1):
            outcome = _explore(SpringParam(k=k), plan, config, rng, memo)
            rec.clock += exploration_time
            if outcome.accepted:
                digests.append(outcome.digest)
                break
            rec.emit("ExplorationRejected", {
                "trial": trial_index,
                "interval": interval,
                "attempt": attempt,
                "achieved_mean_velocity": outcome.achieved_mean_velocity,
                "led_events": outcome.led_events,
            })
        else:
            raise RepeatLimitError(
                f"interval {interval} of trial {trial_index} failed the "
                f"velocity check {config.repeat_cap} times"
            )
    return digests


def _run_staircase_run(
    config: SessionConfig,
    condition: VelocityCondition,
    observer,
    rec: _Recorder,
    rng: np.random.Generator,
    memo: dict,
) -> None:
    rec.emit("RunStarted", {
        "velocity_deg_s": condition.deg_s,
        "bpm": condition.bpm,
        "staircase": asdict(config.staircase),
    })
    plan = _plan(config, condition)
    while not rec.fold.run.state.terminated:
        state = rec.fold.run.state
        is_catch = config.catch_trial_rate > 0 and rng.random() < config.catch_trial_rate
        reference_first = rng.random() < 0.5
        springs = _springs(config.reference_stiffness, state.level, is_catch,
                           reference_first)
        rec.emit("Presented", {
            "trial": state.trial_index,
            "level": state.level,
            "catch": is_catch,
            "reference_first": reference_first,
            "k_first": springs[0],
            "k_second": springs[1],
        })
        digests = _run_intervals(springs, config, plan, rec, rng,
                                 state.trial_index, memo)
        response = observer.respond(springs[0], springs[1], condition.deg_s, rng).value
        rec.clock += RESPONSE_DURATION_S
        rec.emit("Responded", {
            "trial": state.trial_index,
            "catch": is_catch,
            "response": response,
            "correct": _is_correct(response, is_catch),
            "recording_digests": digests,
        })
        after = rec.fold.run.state
        if after.level != state.level or after.last_move_direction != state.last_move_direction:
            rec.emit("StaircaseMoved", {
                "trial": state.trial_index,
                "direction": after.last_move_direction.value,
                "level_before": state.level,
                "level_after": after.level,
            })
        if len(after.reversals) > len(state.reversals):
            reversal = after.reversals[-1]
            rec.emit("Reversal", {
                "trial": reversal.trial_index,
                "index": len(after.reversals),
                "level": reversal.level_at_reversal,
                "new_direction": reversal.new_direction.value,
            })

    result = rec.fold.runs[-1]
    rec.emit("RunTerminated", {**_run_summary(result),
                               "reversal_levels": list(result.reversal_levels)})


def _springs(reference: float, level: float, catch: bool,
             reference_first: bool) -> tuple[float, float]:
    """(k_first, k_second) of a trial: the reference and a comparison
    ``level`` above it (equal to it on a catch trial), in presented order."""
    comparison = reference if catch else reference + level
    return (reference, comparison) if reference_first else (comparison, reference)


def _run_summary(run: RunResult) -> dict:
    return {
        "velocity_deg_s": run.velocity,
        "trials": run.trial_count,
        "threshold_absolute": run.threshold.absolute,
        "threshold_pct": run.threshold.percent_of_reference,
        "proportion_correct_tail": run.proportion_correct_tail,
    }


def _session_summary(runs: tuple[RunResult, ...]) -> dict:
    """The SessionEnded payload of a session whose runs gave ``runs``."""
    return {
        "velocity_order": [r.velocity for r in runs],
        "runs": [{**_run_summary(r), "reversals": len(r.reversal_levels)}
                 for r in runs],
    }


def run_session(config: SessionConfig,
                memo: dict | None = None) -> SessionRun:
    """Execute the full protocol and return results plus the event log.

    ``memo`` holds the noise-free explorations simulated so far; sessions
    given the same dict share them.  Without one the session gets its own.
    """
    if memo is None:
        memo = {}
    rng = np.random.default_rng(config.seed)
    observer = observer_from_config(config.observer)
    rec = _Recorder()
    rec.emit("SessionStarted", {"config": config_to_dict(config)})
    order = [int(i) for i in rng.permutation(len(config.velocities))]
    for position, index in enumerate(order):
        rec.emit("Metadata", {"note": "training", "duration_s": TRAINING_DURATION_S})
        rec.clock += TRAINING_DURATION_S
        _run_staircase_run(config, config.velocities[index], observer, rec, rng,
                           memo)
        if position < len(order) - 1:
            rec.emit("Metadata", {"note": "break", "duration_s": BREAK_DURATION_S})
            rec.clock += BREAK_DURATION_S
    rec.emit("SessionEnded", _session_summary(rec.fold.runs))
    log_text = serialize_log(rec.events)
    return SessionRun(result=_session_result(rec.fold, log_text),
                      log_text=log_text, trials=rec.fold.trials)


def serialize_log(events: list[Event]) -> str:
    lines = [_JSON.encode(e.to_dict()) for e in events]
    return "\n".join(lines) + "\n"


def parse_log(text: str) -> list[Event]:
    """The log's events, one per nonblank line.

    A line that is not JSON, or not an object with exactly an integer
    ``seq``, a string ``kind``, a numeric ``t_wall`` and an object
    ``payload``, raises CorruptLogError naming its line (and its seq when
    that is readable).
    """
    events = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            d, end = _raw_decode(line)
        except json.JSONDecodeError:
            end = None
        try:
            if end != len(line):  # padding, a BOM, trailing data or an error:
                d = json.loads(line)  # read or reject it as json.loads does
            event = Event(d["seq"], d["kind"], d["t_wall"], d["payload"])
        except json.JSONDecodeError as exc:
            raise CorruptLogError(f"line {number} is not JSON: {exc.msg}") from None
        except (KeyError, TypeError):  # not an object, or a key missing
            event = None
        if event is None or len(d) != 4 or type(event.seq) is not int \
                or type(event.kind) is not str or type(event.payload) is not dict \
                or type(event.t_wall) not in (int, float):
            seq = event.seq if event is not None and type(event.seq) is int else None
            raise CorruptLogError(f"line {number} is not an event with an integer "
                                  "seq, a string kind, a numeric t_wall and an "
                                  "object payload", seq)
        events.append(event)
    return events


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def append_amendment(log_text: str, target_seq: int, payload_update: dict) -> str:
    """Append an Amendment event overriding fields of a prior event's payload.

    Nothing is deleted; replay resolves the amendment.  Mirrors the manual
    override an experimenter applies when a wrong button was hit.
    """
    events = parse_log(log_text)
    if not 0 <= target_seq < len(events):
        raise CorruptLogError("amendment targets a nonexistent event", target_seq)
    amendment = Event(
        seq=len(events),
        kind="Amendment",
        t_wall=events[-1].t_wall,
        payload={"target_seq": target_seq, "update": dict(payload_update)},
    )
    return log_text + _JSON.encode(amendment.to_dict()) + "\n"


def replay(log_text: str) -> SessionResult:
    """Recompute the session result from the event log alone.

    The log's events, after amendment resolution, are folded exactly as the
    runner folded them while emitting.  For unamended logs, what the runner
    logged from the fold must match the recomputed fold: each presented
    level and spring pair, each response's correctness, each run's threshold
    and the SessionEnded summary.  A mismatch or malformed sequence raises
    CorruptLogError with the offending sequence number.
    """
    events = parse_log(log_text)
    if not events:
        raise CorruptLogError("empty log")
    amendments, ended = [], False
    for i, event in enumerate(events):
        if event.seq != i:
            raise CorruptLogError("sequence gap", event.seq)
        if event.kind == "Amendment":
            amendments.append(event)
        elif event.kind == "SessionEnded":
            ended = True

    amended: dict[int, dict] = {}  # seq -> payload after its amendments
    for event in amendments:
        target, update = event.payload.get("target_seq"), event.payload.get("update")
        if type(target) is not int or not 0 <= target < len(events):
            raise CorruptLogError("amendment targets missing event", event.seq)
        if type(update) is not dict:
            raise CorruptLogError("amendment update is not an object", event.seq)
        amended.setdefault(target, dict(events[target].payload)).update(update)

    if events[0].kind != "SessionStarted":
        raise CorruptLogError("log does not start with SessionStarted", 0)
    if not ended:
        raise CorruptLogError("missing SessionEnded terminator",
                              events[-1].seq)

    fold = _Fold()
    checked = not amended  # an amendment changes what follows it
    event = events[0]
    try:
        if checked:  # springs are checked against the configured reference
            reference = event.payload["config"]["reference_stiffness"]
        for event in events:
            if event.seq in amended:
                event = event._replace(payload=amended[event.seq])
            fold = _apply(fold, event)
            if checked:
                _check_logged(event, fold, reference)
    except KeyError as exc:
        raise CorruptLogError(f"{event.kind} payload lacks {exc.args[0]!r}",
                              event.seq) from None
    except (TypeError, InvalidConfigError) as exc:
        raise CorruptLogError(f"malformed {event.kind} payload: {exc}",
                              event.seq) from None
    return _session_result(fold, log_text)


def _check_logged(event: Event, fold: _Fold, reference: float) -> None:
    """Raise CorruptLogError where what ``event`` logs differs from what the
    runner would have logged from ``fold``, the fold after ``event``."""
    kind, payload, run = event.kind, event.payload, fold.run
    if kind == "Presented":
        if run is None or run.state.terminated:
            raise CorruptLogError("presentation outside an active run", event.seq)
        level = run.state.level
        springs = _springs(reference, level, payload["catch"],
                           payload["reference_first"])
        if payload["level"] != level or \
                (payload["k_first"], payload["k_second"]) != springs:
            raise CorruptLogError("presented level or springs disagree with the "
                                  "recomputed staircase", event.seq)
    elif kind == "Responded":
        if payload["correct"] != _is_correct(payload["response"], payload["catch"]):
            raise CorruptLogError("logged correctness disagrees with the response",
                                  event.seq)
    elif kind == "RunTerminated":
        if fold.runs[-1].threshold.percent_of_reference != payload["threshold_pct"]:
            raise CorruptLogError("recomputed threshold disagrees with log",
                                  event.seq)
    elif kind == "SessionEnded":
        if payload != _session_summary(fold.runs):
            raise CorruptLogError("SessionEnded summary disagrees with the "
                                  "recomputed runs", event.seq)


def sdt_rates(log_text: str) -> tuple[float, float]:
    """(hit rate, false-alarm rate) over the log's standard and catch trials.

    Hits are Different responses to genuinely different pairs; false alarms
    are Different responses on catch (identical) pairs.
    """
    hits = signal_trials = false_alarms = catch_trials = 0
    for event in parse_log(log_text):
        if event.kind != "Responded":
            continue
        different = event.payload["response"] == "different"
        if event.payload["catch"]:
            catch_trials += 1
            false_alarms += int(different)
        else:
            signal_trials += 1
            hits += int(different)
    hit_rate = hits / signal_trials if signal_trials else float("nan")
    fa_rate = false_alarms / catch_trials if catch_trials else float("nan")
    return hit_rate, fa_rate


def summary_rows(session_id: str, config: SessionConfig,
                 result: SessionResult) -> list[dict]:
    return [{
        "session_id": session_id,
        "seed": config.seed,
        "velocity_deg_s": run.velocity,
        "threshold_pct": run.threshold.percent_of_reference,
        "trials": run.trial_count,
        "reversals": len(run.reversal_levels),
        "prop_correct_tail": "" if run.proportion_correct_tail is None
            else run.proportion_correct_tail,
    } for run in result.runs]


SUMMARY_COLUMNS = ["session_id", "seed", "velocity_deg_s", "threshold_pct",
                   "trials", "reversals", "prop_correct_tail"]
