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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .config import ConfigError, read_fields, section, write
from .observer import Observer, observer_from_config
from .plant import (
    DeviceConfig,
    LimbConfig,
    SpringParam,
    TrajectoryConfig,
    TrajectoryPlan,
    achieved_velocity_ok,
    plan_for_bpm,
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


class RepeatLimitError(RuntimeError):
    """An interval kept failing the velocity check past the repeat cap."""


class CorruptLogError(ValueError):
    def __init__(self, message: str, seq: int | None = None):
        super().__init__(message if seq is None else f"seq {seq}: {message}")
        self.seq = seq


@dataclass(frozen=True)
class VelocityCondition:
    bpm: float
    deg_s: float  # names the run: runs, summary rows and velocity_scaling use it

    def __post_init__(self):
        if self.bpm <= 0.0:
            raise ValueError(f"bpm must be positive, got {self.bpm}")
        if not math.isfinite(self.deg_s):  # the default deg_s can overflow
            raise ValueError(f"deg_s must be finite, got {self.deg_s}")


@dataclass(frozen=True)
class SessionConfig:
    seed: int
    reference_stiffness: float
    staircase: StaircaseConfig
    velocities: tuple[VelocityCondition, ...]
    observer: Observer
    trajectory: TrajectoryConfig = TrajectoryConfig()
    limb: LimbConfig = LimbConfig()
    device: DeviceConfig = DeviceConfig()
    velocity_tolerance: float = 5.0
    catch_trial_rate: float = 0.0
    plant_mode: str = "full"  # "full" simulates the plant, "ideal" skips it
    repeat_cap: int = 5

    def __post_init__(self):
        if self.seed < 0:  # NumPy would refuse it only at run time
            raise ConfigError(f"seed must be a nonnegative integer, got {self.seed}")
        if not self.velocities:
            raise ConfigError("velocities must be nonempty")
        configured = [v.deg_s for v in self.velocities]
        for deg_s in configured:
            if configured.count(deg_s) > 1:
                raise ConfigError(f"velocities: deg_s {deg_s} appears twice")
        # a scaling is looked up by exact velocity: one naming no configured
        # velocity would silently leave that velocity unscaled
        for velocity in getattr(self.observer, "velocity_scaling", {}):
            if velocity not in configured:
                raise ConfigError(f"observer.velocity_scaling key {velocity!r} matches "
                                  f"no configured deg_s {sorted(configured)}")
        if not 0.0 <= self.catch_trial_rate < 1.0:
            raise ConfigError("catch_trial_rate must be in [0, 1)")
        if not 0.0 <= self.velocity_tolerance < math.inf:
            raise ConfigError("velocity_tolerance must be nonnegative and finite")
        if self.plant_mode not in ("full", "ideal"):
            raise ConfigError(f"unknown plant_mode: {self.plant_mode!r}")
        if self.repeat_cap < 1:
            raise ConfigError("repeat_cap must be at least 1")


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


# sections read with the others' values: staircase defaults and deg_s from
# the trajectory and device, the observer's class from its family
_DERIVED = ("staircase", "velocities", "observer")


def config_from_dict(raw: dict) -> SessionConfig:
    """Parse and validate a session config document.

    Every key names a field of SessionConfig or of a section's dataclass and
    is read by that field's type (``config.read_fields``); an unknown key, a
    missing required one or a mistyped value is a ConfigError naming its
    path.  The staircase section overrides ``default_config``, a velocity's
    ``deg_s`` defaults to the trajectory amplitude times ``bpm`` / 60, and
    ``observer.family`` picks the observer's class.
    """
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    for key in ("seed", "reference_stiffness", "velocities", "observer"):
        if key not in raw:
            raise ConfigError(f"missing required key: {key!r}")
    values = read_fields(SessionConfig, {key: value for key, value in raw.items()
                                         if key not in _DERIVED}, "")
    reference = values["reference_stiffness"]
    if reference <= 0.0:
        raise ConfigError(f"reference_stiffness must be positive, got {reference}")
    # a section left out takes SessionConfig's default
    trajectory = values.get("trajectory", SessionConfig.trajectory)
    device = values.get("device", SessionConfig.device)

    velocities = raw["velocities"]
    if not isinstance(velocities, list):
        raise ConfigError(f"velocities must be a JSON array, got {velocities!r}")
    conditions = []
    for index, entry in enumerate(velocities):
        where = f"velocities[{index}]"
        entry = read_fields(VelocityCondition, entry, where)
        if "bpm" not in entry:
            raise ConfigError(f"missing required key in {where}: 'bpm'")
        entry.setdefault("deg_s", trajectory.amplitude * entry["bpm"] / 60.0)
        with section(where):
            conditions.append(VelocityCondition(**entry))
    # before the staircase, whose default cap divides by the amplitude
    with section("trajectory"):
        for condition in conditions:
            plan_for_bpm(condition.bpm, trajectory.amplitude, device.control_rate,
                         trajectory.led_window)
    with section("staircase"):
        staircase = default_config(
            reference, device.torque_limit, trajectory.amplitude,
            **read_fields(StaircaseConfig, raw.get("staircase", {}), "staircase",
                          skip=("reference_stiffness",)))  # the document's own
    return SessionConfig(**values, staircase=staircase, velocities=tuple(conditions),
                         observer=observer_from_config(raw["observer"]))


def config_to_dict(config: SessionConfig) -> dict:
    """The config document of ``config``, every field of every section
    written out."""
    document = write(config)
    del document["staircase"]["reference_stiffness"]  # the document's own
    document["observer"]["family"] = config.observer.family
    return document


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
    gives: the config ``document`` to log, then, asked for in the runner's
    draw order, the run order, then per trial its catch flag and
    presentation order, each exploration's outcome and the response.  An
    exploration's outcome is (accepted by the velocity check, the
    recording's digest when accepted, achieved mean velocity, LED event
    count).  ``_Drawn`` draws the inputs from the seed; ``_Logged`` reads
    them back from a log for replay."""
    clock = 0.0  # the simulated session clock, seconds

    def emit(kind: str, payload: dict) -> None:
        events.append((len(events), kind, clock, payload))

    emit("SessionStarted", {"config": source.document})
    order = source.order(len(config.velocities))
    stair = config.staircase
    runs, trials = [], []
    for position, index in enumerate(order):
        emit("Metadata", {"note": "training", "duration_s": TRAINING_DURATION_S})
        clock += TRAINING_DURATION_S
        condition = config.velocities[index]
        emit("RunStarted", {"velocity_deg_s": condition.deg_s, "bpm": condition.bpm,
                            "staircase": vars(stair).copy()})
        plan = plan_for_bpm(condition.bpm, config.trajectory.amplitude,
                            config.device.control_rate, config.trajectory.led_window)
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
        self.document = config_to_dict(config)
        self.memo = memo
        self.rng = np.random.default_rng(config.seed)

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
        return self.config.observer.respond(springs[0], springs[1], deg_s,
                                            self.rng).value


def _mistyped(event: Event, key: str, expected: str) -> CorruptLogError:
    return CorruptLogError(f"{event.kind}.{key} must be {expected}, got "
                           f"{event.payload.get(key)!r}", event.seq)


class _Logged:
    """The inputs a parsed log recorded, handed back as the emitter asks.

    The config document is SessionStarted's as the log spells it, which
    may leave defaults out or write a number otherwise than config_to_dict:
    replay checks it by reading it into ``config``.  The run order comes
    from the RunStarted events' velocities.  A trial's inputs come from its
    Presented event, the ExplorationRejected events after it (each matched
    to an exploration by its interval) and its Responded event.  The
    emitter recomputes everything else in the log.
    """

    def __init__(self, events: list[Event], config: SessionConfig):
        self.config = config
        self.document = events[0].payload["config"]
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
