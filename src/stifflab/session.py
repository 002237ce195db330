"""Experiment orchestration with an append-only, replayable event log.

A session runs one adaptive staircase per exploration velocity, in an order
shuffled from the seed.  Every trial presents a reference and a comparison
spring in random order, simulates one out-and-back exploration per interval
(repeating rejected explorations without advancing the staircase), asks the
observer for a Same/Different response, and feeds correctness into the
staircase.  Every state change is an event.  One emitter,
``_emit_session``, writes every event from the config and a few recorded
inputs (run order, presentation, exploration outcomes, responses): the
runner draws those inputs from the seed, and ``replay`` reads them back from
the log and re-emits it, so a replayed log gives the runner's result by
construction, including manual response amendments.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
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
    StaircaseConfig,
    ThresholdEstimate,
    default_config,
    new_staircase,
    record_response,
    threshold_estimate,
)

_JSON = json.JSONEncoder(sort_keys=True)  # one line of the event log


def _chunk_encoder(make_encoder):
    """``encode(obj, 0)``, the chunks of ``obj``'s line as ``_JSON.encode``
    writes it: json's C encoder built once from ``make_encoder`` with the
    arguments ``_JSON.iterencode`` builds it with per call, bar the cycle
    check (payloads are trees), or ``_JSON.encode`` where ``make_encoder`` is
    None (a Python without the ``_json`` module)."""
    if make_encoder is None:
        return lambda obj, _level: (_JSON.encode(obj),)
    return make_encoder(None, _JSON.default, json.encoder.encode_basestring_ascii,
                        _JSON.indent, _JSON.key_separator, _JSON.item_separator,
                        _JSON.sort_keys, _JSON.skipkeys, _JSON.allow_nan)


_encode = _chunk_encoder(json.encoder.c_make_encoder)
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
    2.9 is an error rather than a silent 2 (a 2-down rule, say).  Nor may one
    exceed the largest float: the plant computes with it as a float."""
    if type(value) is int and abs(value) > sys.float_info.max:
        raise ConfigError(f"{where} must be at most {sys.float_info.max:g} in "
                          "magnitude")
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
    # vars(): the sections' fields, all plain values (asdict, minus its deep copy)
    stair = vars(config.staircase).copy()
    stair.pop("reference_stiffness")
    return {
        "seed": config.seed,
        "reference_stiffness": config.reference_stiffness,
        "staircase": stair,
        "velocities": [vars(v).copy() for v in config.velocities],
        "trajectory": {"amplitude": config.trajectory_amplitude,
                       "led_window": config.led_window},
        "limb": vars(config.limb).copy(),
        "device": vars(config.device).copy(),
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


def _emit_session(config: SessionConfig, source, events: list) \
        -> tuple[tuple[RunResult, ...], tuple[tuple[TrialRow, ...], ...]]:
    """Append the session's events to the empty list ``events``, each as the
    plain tuple of an Event's fields, so that the caller keeps those emitted
    before an error; return each run's result and trial rows.
    Every event is computed here from ``config`` and the inputs ``source``
    gives, asked for in the runner's draw order: the run order, then per
    trial its catch flag and presentation order, each exploration's outcome
    and the response.  An exploration's outcome is (accepted by the velocity
    check, the recording's digest when accepted, achieved mean velocity, LED
    event count).  ``_Drawn`` draws the inputs from the seed; ``_Logged``
    reads them back from a log for replay."""
    clock = 0.0  # the simulated session clock, seconds

    def emit(kind: str, payload: dict) -> None:
        events.append((len(events), kind, clock, payload))

    emit("SessionStarted", {"config": config_to_dict(config)})
    order = source.order(len(config.velocities))
    stair = config.staircase
    runs, trials = [], []
    for position, index in enumerate(order):
        emit("Metadata", {"note": "training", "duration_s": TRAINING_DURATION_S})
        clock += TRAINING_DURATION_S
        condition = config.velocities[index]
        emit("RunStarted", {"velocity_deg_s": condition.deg_s, "bpm": condition.bpm,
                            "staircase": vars(stair).copy()})
        plan = _plan(config, condition)
        exploration_time = 2.0 * plan.beat_duration
        state = new_staircase(stair)
        rows = []
        tail_correct = tail_total = 0  # staircase responses after the second reversal
        while not state.terminated:
            trial = state.trial_index
            catch, reference_first = source.present(position)
            # the reference and a comparison ``level`` above it (equal to it
            # on a catch trial), in presented order
            reference = config.reference_stiffness
            comparison = reference if catch else reference + state.level
            springs = (reference, comparison) if reference_first else (comparison, reference)
            emit("Presented", {"trial": trial, "level": state.level, "catch": catch,
                               "reference_first": reference_first,
                               "k_first": springs[0], "k_second": springs[1]})
            # both intervals; a rejected exploration repeats its interval only
            digests = []
            for interval, k in enumerate(springs):
                if config.plant_mode == "ideal":
                    clock += exploration_time
                    digests.append("ideal")
                    continue
                for attempt in range(1, config.repeat_cap + 1):
                    accepted, digest, achieved, led_events = \
                        source.explore(interval, attempt, k, plan)
                    clock += exploration_time
                    if accepted:
                        digests.append(digest)
                        break
                    emit("ExplorationRejected", {
                        "trial": trial, "interval": interval, "attempt": attempt,
                        "achieved_mean_velocity": achieved, "led_events": led_events})
                else:
                    raise RepeatLimitError(f"interval {interval} of trial {trial} failed the "
                                           f"velocity check {config.repeat_cap} times")
            response = source.respond(springs, condition.deg_s)
            clock += RESPONSE_DURATION_S
            correct = response == ("same" if catch else "different")
            emit("Responded", {"trial": trial, "catch": catch, "response": response,
                               "correct": correct, "recording_digests": digests})
            if catch:
                continue  # catch trials never drive the staircase
            before = state
            state = record_response(before, correct, stair)
            reversal = len(state.reversals) > len(before.reversals)
            rows.append(TrialRow(trial, before.level, response, reversal))
            if len(before.reversals) >= 2:
                tail_correct += correct
                tail_total += 1
            if state.level != before.level or \
                    state.last_move_direction != before.last_move_direction:
                emit("StaircaseMoved", {"trial": trial,
                                        "direction": state.last_move_direction.value,
                                        "level_before": before.level,
                                        "level_after": state.level})
            if reversal:
                record = state.reversals[-1]
                emit("Reversal", {"trial": record.trial_index,
                                  "index": len(state.reversals),
                                  "level": record.level_at_reversal,
                                  "new_direction": record.new_direction.value})

        result = RunResult(
            velocity=condition.deg_s,
            threshold=threshold_estimate(state, stair),
            trial_count=len(rows),
            reversal_levels=tuple(r.level_at_reversal for r in state.reversals),
            proportion_correct_tail=tail_correct / tail_total if tail_total else None,
        )
        emit("RunTerminated", {**_run_summary(result),
                               "reversal_levels": list(result.reversal_levels)})
        runs.append(result)
        trials.append(tuple(rows))
        if position < len(order) - 1:
            emit("Metadata", {"note": "break", "duration_s": BREAK_DURATION_S})
            clock += BREAK_DURATION_S
    emit("SessionEnded", {"velocity_order": [r.velocity for r in runs], "runs": [
        {**_run_summary(r), "reversals": len(r.reversal_levels)} for r in runs]})
    return tuple(runs), tuple(trials)


class _Drawn:
    """A session's inputs drawn from its seed: the run order and each
    presentation from the RNG, explorations from the plant and responses
    from the observer."""

    def __init__(self, config: SessionConfig, memo: dict):
        self.config = config
        self.memo = memo
        self.rng = np.random.default_rng(config.seed)
        self.observer = observer_from_config(config.observer)

    def order(self, count: int) -> list[int]:
        return [int(i) for i in self.rng.permutation(count)]

    def present(self, position: int) -> tuple[bool, bool]:
        rate = self.config.catch_trial_rate
        catch = rate > 0 and self.rng.random() < rate
        return catch, self.rng.random() < 0.5

    def explore(self, interval: int, attempt: int, k: float,
                plan: TrajectoryPlan) -> tuple[bool, str, float, int]:
        """Simulate one exploration, or recall it from ``memo``.  Without
        motor noise the plant draws no random numbers, so ``memo`` maps (spring,
        plan, limb, device, velocity tolerance) to the outcome, each simulated
        once per memo.  Noisy explorations are always simulated, never stored."""
        config, spring, key = self.config, SpringParam(k=k), None
        if config.limb.motor_noise_std == 0:
            key = (spring, plan, config.limb, config.device, config.velocity_tolerance)
            known = self.memo.get(key)
            if known is not None:
                return known
        recording = simulate_exploration(spring, plan, config.limb, config.device,
                                         self.rng)
        accepted = achieved_velocity_ok(recording, plan, config.velocity_tolerance)
        outcome = (accepted, recording.digest() if accepted else "",
                   float(recording.achieved_mean_velocity), len(recording.led_events))
        if key is not None:
            self.memo[key] = outcome
        return outcome

    def respond(self, springs: tuple[float, float], deg_s: float) -> str:
        return self.observer.respond(springs[0], springs[1], deg_s, self.rng).value


def _mistyped(event: Event, key: str, expected: str) -> CorruptLogError:
    return CorruptLogError(f"{event.kind}.{key} must be {expected}, got "
                           f"{event.payload.get(key)!r}", event.seq)


class _Logged:
    """The inputs a parsed log recorded, handed back as the emitter asks.

    The run order comes from the RunStarted events' velocities.  A trial's
    inputs come from its Presented event, the ExplorationRejected events
    after it (each matched to an exploration by its interval) and its
    Responded event.  The emitter recomputes everything else in the log.
    """

    def __init__(self, events: list[Event], config: SessionConfig):
        self.config = config
        runs = []  # (RunStarted, [[Presented, rejections, Responded], ...])
        run = None  # the trials of the run being read
        for event in events:
            kind = event.kind
            if kind == "RunStarted":
                run = []
                runs.append((event, run))
            elif kind in ("Presented", "ExplorationRejected", "Responded"):
                if run is None:
                    raise CorruptLogError(f"{kind} outside an active run", event.seq)
                if kind == "Presented":
                    run.append([event, [], None])
                elif not run or run[-1][2] is not None:
                    raise CorruptLogError(f"{kind} outside a trial", event.seq)
                elif kind == "Responded":
                    run[-1][2] = event
                else:
                    run[-1][1].append(event)
            elif kind not in ("StaircaseMoved", "Reversal"):
                run = None
        self.runs = [(start, iter(trials)) for start, trials in runs]
        self.trial = None  # the trial being read

    def order(self, count: int) -> list[int]:
        configured = [v.deg_s for v in self.config.velocities]
        order = []
        for start, _ in self.runs:
            velocity = start.payload.get("velocity_deg_s")
            if velocity not in configured or configured.index(velocity) in order:
                raise CorruptLogError(f"RunStarted.velocity_deg_s {velocity!r} is no "
                                      "configured velocity yet to run", start.seq)
            order.append(configured.index(velocity))
        if len(order) < count:
            raise CorruptLogError(f"the config has {count} velocities, the log "
                                  f"{len(order)} runs", 0)
        return order

    def present(self, position: int) -> tuple[bool, bool]:
        start, trials = self.runs[position]
        self.trial = next(trials, None)
        if self.trial is None:
            raise CorruptLogError("run ends before its staircase does", start.seq)
        presented, _, responded = self.trial
        if responded is None:
            raise CorruptLogError("Presented without a Responded", presented.seq)
        for key in ("catch", "reference_first"):
            if type(presented.payload.get(key)) is not bool:
                raise _mistyped(presented, key, "a boolean")
        return presented.payload["catch"], presented.payload["reference_first"]

    def explore(self, interval: int, attempt: int, k: float,
                plan: TrajectoryPlan) -> tuple[bool, str, float, int]:
        _, rejections, responded = self.trial
        for event in rejections:
            if event.payload.get("interval") == interval:
                if attempt == self.config.repeat_cap:
                    raise CorruptLogError(f"interval {interval} rejected repeat_cap "
                                          f"({attempt}) times", event.seq)
                rejections.remove(event)
                return (False, "", event.payload.get("achieved_mean_velocity"),
                        event.payload.get("led_events"))
        digests = responded.payload.get("recording_digests")  # each interval checks its own
        if type(digests) is not list or len(digests) != 2 or type(digests[interval]) is not str:
            raise _mistyped(responded, "recording_digests", "a list of two strings")
        return True, digests[interval], 0.0, 0

    def respond(self, springs: tuple[float, float], deg_s: float) -> str:
        _, rejections, responded = self.trial
        if rejections:
            raise CorruptLogError("ExplorationRejected matches no exploration",
                                  rejections[0].seq)
        response = responded.payload.get("response")
        if response != "same" and response != "different":
            raise _mistyped(responded, "response", '"same" or "different"')
        return response

    def check_all_read(self) -> None:
        """Raise where a run logged trials after its staircase ended."""
        for _, trials in self.runs:
            unread = next(trials, None)
            if unread is not None:
                raise CorruptLogError("Presented after its run's staircase ended",
                                      unread[0].seq)


def _run_summary(run: RunResult) -> dict:
    return {
        "velocity_deg_s": run.velocity,
        "trials": run.trial_count,
        "threshold_absolute": run.threshold.absolute,
        "threshold_pct": run.threshold.percent_of_reference,
        "proportion_correct_tail": run.proportion_correct_tail,
    }


def run_session(config: SessionConfig,
                memo: dict | None = None) -> SessionRun:
    """Execute the full protocol and return results plus the event log.

    ``memo`` holds the noise-free explorations simulated so far; sessions
    given the same dict share them.  Without one the session gets its own.
    """
    emitted: list[tuple] = []
    source = _Drawn(config, {} if memo is None else memo)
    runs, trials = _emit_session(config, source, emitted)
    log_text = serialize_log(emitted)
    result = SessionResult(runs=runs, velocity_order=tuple(r.velocity for r in runs),
                           log_digest=_digest(log_text))
    return SessionRun(result=result, log_text=log_text, trials=trials)


def serialize_log(events: list[tuple]) -> str:
    """The JSONL log of ``events``, Events or plain tuples of their fields."""
    join = "".join
    lines = [join(_encode({"kind": kind, "payload": payload, "seq": seq,
                           "t_wall": t_wall}, 0))
             for seq, kind, t_wall, payload in events]
    return "\n".join(lines) + "\n"


def parse_log(text: str) -> list[Event]:
    """The log's events, one per nonblank line.

    A line that is not JSON (or holds an integer too long for ``int()``),
    or not an object with exactly an integer ``seq``, a string ``kind``, a
    numeric ``t_wall`` and an object ``payload``, raises CorruptLogError
    naming its line (and its seq when that is readable).
    """
    events = []
    for number, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        try:
            d, end = _raw_decode(line)
        except ValueError:  # not JSON, or an integer int() refuses
            end = None
        try:
            if end != len(line):  # padding, a BOM, trailing data or an error:
                d = json.loads(line)  # read or reject it as json.loads does
            event = Event(d["seq"], d["kind"], d["t_wall"], d["payload"])
        except json.JSONDecodeError as exc:
            raise CorruptLogError(f"line {number} is not JSON: {exc.msg}") from None
        except ValueError as exc:  # an integer past int()'s digit limit
            raise CorruptLogError(f"line {number}: {exc}") from None
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
    return log_text + serialize_log([amendment])


def replay(log_text: str) -> SessionResult:
    """Recompute the session result from the event log alone.

    The log's recorded inputs (see ``_Logged``), after amendment resolution,
    are fed back through ``_emit_session``, the code that wrote the log.  An
    unamended log must come out again as logged: the first re-emitted event
    whose value differs raises CorruptLogError naming its seq, kind and key.
    An amended log is re-emitted from its amended inputs and not compared.
    A malformed log also raises CorruptLogError.
    """
    events = parse_log(log_text)
    if not events:
        raise CorruptLogError("empty log")
    amendments, end = [], None
    for i, event in enumerate(events):
        if event.seq != i:
            raise CorruptLogError("sequence gap", event.seq)
        if event.kind == "Amendment":
            amendments.append(event)
        elif event.kind == "SessionEnded" and end is None:
            end = i

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
    if end is None:
        raise CorruptLogError("missing SessionEnded terminator",
                              events[-1].seq)
    if amended:
        events = [event._replace(payload=amended[event.seq]) if event.seq in amended
                  else event for event in events]
    try:
        config = config_from_dict(events[0].payload.get("config"))
    except ConfigError as exc:
        raise CorruptLogError(f"SessionStarted config: {exc}", 0) from None

    source, emitted = _Logged(events, config), []
    try:
        runs, _ = _emit_session(config, source, emitted)
        source.check_all_read()
    except CorruptLogError:
        if not amended:  # an event that differs before the faulty input comes first
            _check_re_emitted(events, emitted)
        raise
    if not amended:  # an amendment changes what follows it, so it is not compared
        _check_re_emitted(events, emitted)
    for event in events[end + 1:]:
        if event.kind != "Amendment":
            raise CorruptLogError(f"{event.kind} after SessionEnded", event.seq)
    return SessionResult(runs=runs, velocity_order=tuple(r.velocity for r in runs),
                         log_digest=_digest(log_text))


_ABSENT = object()  # a payload key one of two events lacks


def _check_re_emitted(logged: list[Event], emitted: list[tuple]) -> None:
    """Raise at the first re-emitted event whose value differs from the
    logged one, naming its kind and key."""
    if logged[:len(emitted)] == emitted:
        return
    old, new = next((old, Event._make(new)) for old, new in zip(logged, emitted)
                    if old != new)
    if old.kind != new.kind:
        raise CorruptLogError(f"logged {old.kind} where the re-emitted log has "
                              f"{new.kind}", old.seq)
    key = "t_wall"
    if old.t_wall == new.t_wall:
        key = next(k for k in sorted(old.payload.keys() | new.payload.keys())
                   if old.payload.get(k, _ABSENT) != new.payload.get(k, _ABSENT))
    raise CorruptLogError(f"{old.kind}.{key} disagrees with the re-emitted log", old.seq)


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
