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

import contextlib
import json
import math
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np

from .config import ConfigError, read_fields, section, write
from .observer import Observer, observer_from_config
from .plant import (
    DeviceConfig,
    LaneOutcome,
    LimbConfig,
    SpringParam,
    TrajectoryConfig,
    TrajectoryPlan,
    TrialRecording,
    achieved_velocity_ok,
    plan_for_bpm,
    predicted_velocity_ok,
    simulate_exploration,
    simulate_lanes,
)
from .staircase import (
    StaircaseConfig,
    ThresholdEstimate,
    default_config,
    new_staircase,
    record_response,
    threshold_estimate,
)

_encode = json.JSONEncoder(sort_keys=True).encode  # one line of the event log
_raw_decode = json.JSONDecoder().raw_decode  # a line as json.loads reads it, bar padding
_COPY_SEED = np.random.SeedSequence(0)  # seeds an RNG copy that then takes a state

TRAINING_DURATION_S = 120.0
BREAK_DURATION_S = 300.0
RESPONSE_DURATION_S = 1.0
# A config's runs end after at most this many reversals, ~5 trials each: a
# limit of 10**9 would run for ever (the protocol's is 10).
MAX_REVERSALS = 1000
# An interval is explored at most this many times: a rejection the noise-free
# plant repeats on every attempt adds an event each time (the protocol's is 5).
MAX_ATTEMPTS = 1000


class RepeatLimitError(RuntimeError):
    """An interval kept failing the velocity check past the repeat cap."""


class CorruptLogError(ValueError):
    def __init__(self, message: str, seq: int | None = None):
        super().__init__(message if seq is None else f"seq {seq}: {message}")
        self.message, self.seq = message, seq


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
        if not 1 <= self.repeat_cap <= MAX_ATTEMPTS:
            raise ConfigError(f"repeat_cap must be from 1 to {MAX_ATTEMPTS:,}, "
                              f"got {self.repeat_cap:.6g}")


class Event(NamedTuple):
    seq: int
    kind: str
    t_wall: float  # simulated session clock, seconds
    payload: dict


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


@dataclass(frozen=True)
class SessionRun:
    """Result of an executed session plus its serialized event log."""

    result: SessionResult
    log_text: str


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
    # the plant floors angle / resolution for angles up to its limit, 10 x the
    # amplitude, which an integer that no float holds would stop
    counts = device.encoder_counts_per_rev
    if not math.isfinite(10.0 * trajectory.amplitude / (360.0 / counts)):
        raise ConfigError(f"device.encoder_counts_per_rev {counts:.6g} resolves 10 x "
                          f"trajectory.amplitude ({trajectory.amplitude:g} deg) into "
                          "more counts than a float holds")
    overrides = read_fields(StaircaseConfig, raw.get("staircase", {}), "staircase",
                            skip=("reference_stiffness",))  # the document's own
    if overrides.get("reversal_limit", 0) > MAX_REVERSALS:
        raise ConfigError(f"staircase.reversal_limit must be at most {MAX_REVERSALS:,}, "
                          f"got {overrides['reversal_limit']:.6g}")
    with section("staircase"):
        staircase = default_config(reference, device.torque_limit, trajectory.amplitude,
                                   **overrides)
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


def _emit_session(config: SessionConfig, source, events: list) -> tuple[RunResult, ...]:
    """Append the session's events to the empty list ``events``, each as the
    plain tuple of an Event's fields, so that the caller keeps those emitted
    before an error; return each run's result.
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
    reference = config.reference_stiffness
    ideal = config.plant_mode == "ideal"
    runs = []
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
        while not state.terminated:
            trial, level = state.trial_index, state.level
            catch, reference_first = source.present(position)
            # the reference and a comparison ``level`` above it (equal to it
            # on a catch trial), in presented order
            comparison = reference if catch else reference + level
            springs = (reference, comparison) if reference_first else (comparison, reference)
            emit("Presented", {"trial": trial, "level": level, "catch": catch,
                               "reference_first": reference_first,
                               "k_first": springs[0], "k_second": springs[1]})
            # both intervals; a rejected exploration repeats its interval only
            digests = []
            for interval, k in enumerate(springs):
                if ideal:
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
            moved = state.last_move_direction
            if state.level != level or moved != before.last_move_direction:
                emit("StaircaseMoved", {"trial": trial, "direction": moved,
                                        "level_before": level, "level_after": state.level})
            if len(state.reversals) > len(before.reversals):
                emit("Reversal", {"trial": trial, "index": len(state.reversals),
                                  "level": state.reversals[-1], "new_direction": moved})

        result = RunResult(
            velocity=condition.deg_s,
            threshold=threshold_estimate(state, stair),
            trial_count=state.trial_index,
            reversal_levels=state.reversals,
            proportion_correct_tail=(state.tail_correct / state.tail_total
                                     if state.tail_total else None),
        )
        emit("RunTerminated", {**_run_summary(result),
                               "reversal_levels": list(result.reversal_levels)})
        runs.append(result)
        if position < len(order) - 1:
            emit("Metadata", {"note": "break", "duration_s": BREAK_DURATION_S})
            clock += BREAK_DURATION_S
    emit("SessionEnded", {"velocity_order": [r.velocity for r in runs], "runs": [
        {**_run_summary(r), "reversals": len(r.reversal_levels)} for r in runs]})
    return tuple(runs)


class _Drawn:
    """A session's inputs drawn from its seed: the run order and each
    presentation from the RNG, explorations from the plant and responses
    from the observer.

    ``memo`` and ``document`` serve exactly one config, ``config`` up to
    its seed: a memo key leaves out what the config fixes, and the document
    is logged with this session's seed.  With a dict as ``listed``, an
    exploration the memo does not hold is listed there, memo key -> (spring,
    plan, a copy of the RNG before its noise or None, predicted acceptance),
    and answered with the prediction, not simulated."""

    def __init__(self, config: SessionConfig, memo: dict, document: dict,
                 listed: dict | None = None):
        self.config = config
        self.document = {**document, "seed": config.seed}
        self.memo, self.listed = memo, listed
        self.rng = np.random.default_rng(config.seed)

    def order(self, count: int) -> list[int]:
        return [int(i) for i in self.rng.permutation(count)]

    def present(self, position: int) -> tuple[bool, bool]:
        rate = self.config.catch_trial_rate
        catch = rate > 0 and self.rng.random() < rate
        return catch, self.rng.random() < 0.5

    def explore(self, interval: int, attempt: int, k: float,
                plan: TrajectoryPlan) -> tuple[bool, str, float, int]:
        """Simulate one exploration, or recall it from ``memo``: (k, plan),
        with motor noise also the string of the RNG's state dict before its
        noise, -> the outcome and a generator at the RNG state after that
        noise (None without), whose state a hit takes.  Only noise-free
        outcomes simulated here enter the memo, each once; noisy ones enter
        it from the lanes of ``run_sessions``."""
        config = self.config
        noisy = config.limb.motor_noise_std > 0
        key = (k, plan, str(self.rng.bit_generator.state)) if noisy else (k, plan)
        found = self.memo.get(key)
        if found is not None:
            outcome, after = found
            if after is not None:
                self.rng.bit_generator.state = after.bit_generator.state
            return outcome
        spring = SpringParam(k=k)
        if self.listed is not None:
            rng, accepted = None, True
            if noisy:
                rng = np.random.Generator(type(self.rng.bit_generator)(_COPY_SEED))
                rng.bit_generator.state = self.rng.bit_generator.state
                accepted = predicted_velocity_ok(spring, plan, config.limb, self.rng,
                                                 config.velocity_tolerance)
            self.listed[key] = spring, plan, rng, accepted
            return accepted, "", 0.0, 0
        recording = simulate_exploration(spring, plan, config.limb, config.device,
                                         self.rng)
        outcome = _outcome(config, plan, recording)
        if not noisy:
            self.memo[key] = outcome, None
        return outcome

    def respond(self, springs: tuple[float, float], deg_s: float) -> str:
        return self.config.observer.respond(springs[0], springs[1], deg_s, self.rng)


def _outcome(config: SessionConfig, plan: TrajectoryPlan,
             recording: TrialRecording | LaneOutcome) -> tuple[bool, str, float, int]:
    """An exploration's outcome as the emitter takes it (see _emit_session)."""
    accepted = achieved_velocity_ok(recording, plan, config.velocity_tolerance)
    return (accepted, recording.digest() if accepted else "",
            float(recording.achieved_mean_velocity), len(recording.led_events))


# A noise-free batch speculates at most this many sessions; the rest find
# most of their explorations in the memo and integrate the others one by
# one.  Speculating a session costs about as much as emitting it (~1 ms), and
# an exploration integrated in lanes instead saves ~1.5 ms, so a speculated
# session pays while it reaches about one exploration no earlier session did.
# Default seeds reach ~15 new ones each over the first ten sessions and
# fewer than one each past the fortieth.  A serial 1000-session default
# batch took 2.3, 2.2 and 2.1 s of CPU with 30, 50 and 100 speculated, within
# its spread, and 2.9 s with all (medians of nine rounds on a 2-core x86
# host).  A noisy session shares no exploration, so every one is speculated.
PRESIMULATED_SESSIONS = 50
# run_sessions integrates the explorations of the sessions it speculates
# once they list this many distinct ones: a noisy session lists ~250 in its
# first pass and holds ~2 KB for each until they are integrated, and the 50
# noise-free ones ~220 in all.
SPECULATED_EXPLORATIONS = 500


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
    to an exploration by its interval) and its Responded event, whose
    response ``responses`` may override by its seq.  The emitter recomputes
    everything else in the log.
    """

    def __init__(self, events: list[Event], config: SessionConfig,
                 responses: dict[int, str]):
        self.config, self.responses = config, responses
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
                achieved = event.payload.get("achieved_mean_velocity")
                if type(achieved) is not int and (type(achieved) is not float
                                                  or not math.isfinite(achieved)):
                    raise _mistyped(event, "achieved_mean_velocity", "a finite number")
                led_events = event.payload.get("led_events")
                if type(led_events) is not int or led_events < 0:
                    raise _mistyped(event, "led_events", "a nonnegative integer")
                rejections.remove(event)
                return False, "", achieved, led_events
        digests = responded.payload.get("recording_digests")  # each interval checks its own
        if type(digests) is not list or len(digests) != 2 or type(digests[interval]) is not str:
            raise _mistyped(responded, "recording_digests", "a list of two strings")
        return True, digests[interval], 0.0, 0

    def respond(self, springs: tuple[float, float], deg_s: float) -> str:
        responded = self.trial[2]
        response = self.responses.get(responded.seq, responded.payload.get("response"))
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


def run_session(config: SessionConfig) -> SessionRun:
    """Execute the full protocol and return results plus the event log.

    The session runs alone, on a memo of its own that serves ``config``
    only, and integrates each of its explorations one by one.
    """
    return _session(config, {}, config_to_dict(config))


def _session(config: SessionConfig, memo: dict, document: dict) -> SessionRun:
    """The session of ``config`` on ``memo`` and ``document`` (see ``_Drawn``)."""
    emitted: list[tuple] = []
    runs = _emit_session(config, _Drawn(config, memo, document), emitted)
    return SessionRun(result=SessionResult(runs=runs), log_text=serialize_log(emitted))


def run_sessions(base: SessionConfig, seeds: list[int]) -> Iterator[SessionRun]:
    """The sessions of ``base`` at each of ``seeds``, in order, each as
    ``run_session`` runs it alone, and yielded as it ends.  They share one
    config document and one exploration memo, which serves ``base`` alone.

    A ``full`` batch first speculates its sessions (a noise-free one its
    first ``PRESIMULATED_SESSIONS``): a session is emitted from its seed,
    listing each exploration the memo does not hold and answering it with a
    prediction.  Once a block of sessions lists ``SPECULATED_EXPLORATIONS``
    distinct explorations, or the speculated seeds run out, those are
    given to ``simulate_lanes``, and the outcomes its lanes integrate enter
    the memo.  A session that listed an outcome its prediction got wrong is
    speculated again, and finds its outcomes up to and including that one in
    the memo.  What no lane gave (a diverged lane, a slice too narrow to
    integrate) the session integrates one by one, raising its errors.
    A noisy block's outcomes leave the memo once its sessions have run.  No
    log depends on a prediction."""
    document = config_to_dict(base)  # the sessions' documents differ only in seed
    memo: dict = {}
    noisy = base.limb.motor_noise_std > 0
    speculated = (seeds[:len(seeds) if noisy else PRESIMULATED_SESSIONS]
                  if base.plant_mode == "full" else [])

    def speculate(seed: int) -> dict:
        """What the session at ``seed`` lists (see ``_Drawn``), in order."""
        config = replace(base, seed=seed)
        source = _Drawn(config, memo, document, {})
        with contextlib.suppress(RepeatLimitError):  # then its own if predicted right
            _emit_session(config, source, [])
        return source.listed

    done = 0  # sessions yielded
    block: dict = {}  # seed -> what it listed
    lanes: dict = {}  # memo key -> (spring, plan, RNG), in the block's order
    for position, seed in enumerate(speculated):
        block[seed] = speculate(seed)
        lanes.update((key, lane[:3]) for key, lane in block[seed].items())
        if len(lanes) < SPECULATED_EXPLORATIONS and position < len(speculated) - 1:
            continue
        while lanes:  # a pass that integrates nothing speculates no session again
            for key, recording in simulate_lanes(lanes, base.limb, base.device).items():
                _, plan, rng = lanes[key]
                if recording is not None:  # a diverged lane stays out
                    memo[key] = _outcome(base, plan, recording), rng
            block = {owner: speculate(owner) for owner, listed in block.items()
                     if any(key in memo and memo[key][0][0] != accepted
                            for key, (*_, accepted) in listed.items())}
            lanes = {key: lane[:3] for listed in block.values()
                     for key, lane in listed.items()}
        for s in seeds[done:position + 1]:
            yield _session(replace(base, seed=s), memo, document)
        done = position + 1
        if noisy:  # no later session meets these RNG states
            memo.clear()
        block, lanes = {}, {}
    for s in seeds[done:]:
        yield _session(replace(base, seed=s), memo, document)


_BOOL = ("false", "true")  # a bool's JSON, indexed by the bool
_RESPONSES = ("same", "different")
_DIRECTIONS = ("up", "down")
_SPELLINGS_MAX = 4096  # ~0.5 MB; a session spells ~640 floats, ~180 distinct


class _Spellings(dict):
    def __missing__(self, x: float) -> str:
        spelled = repr(x)
        if x:  # 0.0 == -0.0 as keys: one would spell the other
            if len(self) >= _SPELLINGS_MAX:
                self.clear()
            self[x] = spelled
        return spelled


_SPELLINGS = _Spellings()


def serialize_log(events: list[tuple]) -> str:
    """The JSONL log of ``events``, Events or plain tuples of their fields:
    each line is ``json.dumps(event, sort_keys=True)`` of the event's dict.

    A Presented, Responded, StaircaseMoved or Reversal event is written
    from its kind's template, whose keys are in sorted order, when its
    payload has exactly the kind's keys and every value is one the template
    writes as json does: an exact int, bool, or finite float (``repr``), a
    response or direction word, digests of ASCII letters and digits.  Any
    other event goes through json's encoder, ``_encode``.  The guards stay
    inline: a helper call per value costs as much as the encoder.  A float
    that passed its guard (``1 == True == 1.0`` hash alike) is spelled from
    ``_SPELLINGS``, a memo of ``repr`` cleared at ``_SPELLINGS_MAX``
    entries; it never holds zero, since ``0.0 == -0.0`` as keys.
    """
    lines = []
    line = lines.append
    isfinite, spell = math.isfinite, _SPELLINGS
    for seq, kind, t_wall, p in events:
        if type(kind) is str and type(p) is dict and type(seq) is int \
                and type(t_wall) is float and isfinite(t_wall):
            n = len(p)
            if kind == "Presented" and n == 6:
                catch, first, trial = p.get("catch"), p.get("reference_first"), p.get("trial")
                level, k1, k2 = p.get("level"), p.get("k_first"), p.get("k_second")
                if type(catch) is bool and type(first) is bool and type(trial) is int \
                        and type(level) is float and type(k1) is float and type(k2) is float \
                        and isfinite(level) and isfinite(k1) and isfinite(k2):
                    line(f'{{"kind": "Presented", "payload": {{"catch": {_BOOL[catch]}, '
                         f'"k_first": {spell[k1]}, "k_second": {spell[k2]}, '
                         f'"level": {spell[level]}, "reference_first": {_BOOL[first]}, '
                         f'"trial": {trial}}}, "seq": {seq}, "t_wall": {spell[t_wall]}}}')
                    continue
            elif kind == "Responded" and n == 5:
                catch, correct, trial = p.get("catch"), p.get("correct"), p.get("trial")
                response, digests = p.get("response"), p.get("recording_digests")
                if type(catch) is bool and type(correct) is bool and type(trial) is int \
                        and type(response) is str and response in _RESPONSES \
                        and type(digests) is list and len(digests) == 2:
                    a, b = digests
                    if type(a) is str and type(b) is str and (a + b).isascii() \
                            and a.isalnum() and b.isalnum():
                        line(f'{{"kind": "Responded", "payload": {{"catch": {_BOOL[catch]}, '
                             f'"correct": {_BOOL[correct]}, "recording_digests": '
                             f'["{a}", "{b}"], "response": "{response}", "trial": {trial}}}, '
                             f'"seq": {seq}, "t_wall": {spell[t_wall]}}}')
                        continue
            elif kind == "StaircaseMoved" and n == 4:
                direction, trial = p.get("direction"), p.get("trial")
                before, after = p.get("level_before"), p.get("level_after")
                if type(direction) is str and direction in _DIRECTIONS \
                        and type(trial) is int and type(before) is float \
                        and type(after) is float and isfinite(before) and isfinite(after):
                    line(f'{{"kind": "StaircaseMoved", "payload": {{"direction": '
                         f'"{direction}", "level_after": {spell[after]}, "level_before": '
                         f'{spell[before]}, "trial": {trial}}}, "seq": {seq}, '
                         f'"t_wall": {spell[t_wall]}}}')
                    continue
            elif kind == "Reversal" and n == 4:
                index, level = p.get("index"), p.get("level")
                direction, trial = p.get("new_direction"), p.get("trial")
                if type(index) is int and type(trial) is int and type(level) is float \
                        and isfinite(level) \
                        and type(direction) is str and direction in _DIRECTIONS:
                    line(f'{{"kind": "Reversal", "payload": {{"index": {index}, '
                         f'"level": {spell[level]}, "new_direction": "{direction}", '
                         f'"trial": {trial}}}, "seq": {seq}, "t_wall": {spell[t_wall]}}}')
                    continue
        line(_encode({"kind": kind, "payload": p, "seq": seq, "t_wall": t_wall}))
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


def append_amendment(log_text: str, target_seq: int, payload_update: dict) -> str:
    """Append an Amendment event overriding fields of a prior event's payload.

    Nothing is deleted; replay resolves the amendment.  Mirrors the manual
    override an experimenter applies when a wrong button was hit.  The
    amended log is replayed first: one that replay refuses raises its
    CorruptLogError and is not returned.
    """
    events = parse_log(log_text)
    if not events:
        raise CorruptLogError("empty log")
    amended = log_text + serialize_log([Event(len(events), "Amendment", events[-1].t_wall, {
        "target_seq": target_seq, "update": dict(payload_update)})])
    replay(amended)
    return amended


def _amended_responses(events: list[Event], end: int) -> dict[int, str]:
    """The responses set by the events after SessionEnded, ``events[end]``,
    by their Responded event's seq.  Raise unless each is an Amendment of a
    Responded event's ``response``, to a response word, and ``correct``, to
    the value that response (as amended so far) gives; ``correct`` is no
    input, the emitter recomputes it."""
    responses = {}
    for amendment in events[end + 1:]:
        if amendment.kind != "Amendment":
            raise CorruptLogError(f"{amendment.kind} after SessionEnded", amendment.seq)
        target = amendment.payload.get("target_seq")
        update = amendment.payload.get("update")
        if type(target) is not int or not 0 <= target < len(events):
            raise CorruptLogError("amendment targets missing event", amendment.seq)
        if type(update) is not dict:
            raise CorruptLogError("amendment update is not an object", amendment.seq)
        kind, payload = events[target].kind, events[target].payload
        for key in update:
            if kind != "Responded" or key != "response" and key != "correct":
                raise CorruptLogError(f"amendment may set only Responded.response and "
                                      f".correct, not {kind}.{key}", amendment.seq)
        if kind != "Responded":
            raise CorruptLogError(f"amendment target_seq names a {kind}, not a Responded "
                                  "event", amendment.seq)
        response = update.get("response", responses.get(target, payload.get("response")))
        if "response" in update and response != "same" and response != "different":
            raise CorruptLogError(f'amendment sets Responded.response to {response!r}, not '
                                  '"same" or "different"', amendment.seq)
        if "correct" in update and update["correct"] is not \
                (response == ("same" if payload.get("catch") else "different")):
            raise CorruptLogError(f"amendment sets Responded.correct to {update['correct']!r}, "
                                  f"which disagrees with its response {response!r}",
                                  amendment.seq)
        responses[target] = response
    return responses


def replay(log_text: str) -> SessionResult:
    """Recompute the session result from the event log alone.

    A log is the emitted session followed only by Amendments.  Its recorded
    inputs (see ``_Logged``) are fed back through ``_emit_session``, the
    code that wrote the log, and the log must come out again as logged: the
    first re-emitted event whose value differs raises CorruptLogError naming
    its seq, kind and key.  An amendment may set only a Responded event's
    ``response`` and, to the value that response gives, its ``correct``;
    an amended log is then re-emitted once more with the amended responses
    for the result.  A malformed log, an amendment of anything else, or
    amended responses the logged trials cannot carry raise CorruptLogError.
    """
    events = parse_log(log_text)
    if not events:
        raise CorruptLogError("empty log")
    for i, event in enumerate(events):
        if event.seq != i:
            raise CorruptLogError("sequence gap", event.seq)
    if events[0].kind != "SessionStarted":
        raise CorruptLogError("log does not start with SessionStarted", 0)
    end = next((i for i, event in enumerate(events) if event.kind == "SessionEnded"), None)
    if end is None:
        raise CorruptLogError("missing SessionEnded terminator", events[-1].seq)
    responses = _amended_responses(events, end)
    try:
        config = config_from_dict(events[0].payload.get("config"))
    except ConfigError as exc:
        raise CorruptLogError(f"SessionStarted config: {exc}", 0) from None
    emitted = []  # a trial logged past its staircase's end differs from RunTerminated
    try:
        runs = _emit_session(config, _Logged(events, config, {}), emitted)
    finally:  # an event that differs before a faulty input comes first
        _check_re_emitted(events, emitted)
    if responses:
        source = _Logged(events, config, responses)
        try:
            runs = _emit_session(config, source, [])
            source.check_all_read()
        except CorruptLogError as exc:
            raise CorruptLogError(f"with the amended responses, {exc.message}",
                                  exc.seq) from None
    return SessionResult(runs=runs)


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


def summary_rows(session_id: str, seed: int, result: SessionResult) -> list[dict]:
    return [{
        "session_id": session_id,
        "seed": seed,
        "velocity_deg_s": run.velocity,
        "threshold_pct": run.threshold.percent_of_reference,
        "trials": run.trial_count,
        "reversals": len(run.reversal_levels),
        "prop_correct_tail": "" if run.proportion_correct_tail is None
            else run.proportion_correct_tail,
    } for run in result.runs]


SUMMARY_COLUMNS = ["session_id", "seed", "velocity_deg_s", "threshold_pct",
                   "trials", "reversals", "prop_correct_tail"]
