"""The benchmark's four workloads and the checks on their outputs.

Each workload turns (seed, op index) into the inputs of one op, runs the op
through stifflab's public entry points only (``stifflab.cli.main`` for
``simulate`` and ``replay``, the public ``stifflab.emg`` functions), and
checks what the op produced.  An op is closed-loop: the next one starts
after the previous one has finished.

Every op reports two rates:

* ``produce``: what ``stifflab simulate`` wrote, counted in the unit that
  sets its cost: plant samples behind the logged explorations in full
  plant mode, protocol trials in ideal mode; for emg_envelope, record
  samples taken from activation through synthesis and both envelopes;
* ``consume``: protocol trials re-verified by ``stifflab replay`` (session
  workloads) or envelope samples low-passed, counted once per filter pass
  (emg_envelope).

Sessions are not the unit because a session's length varies with its seed
(about 93 trials, 16% coefficient of variation); sessions and replays per
second are printed alongside.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Sessions of one --seed never overlap those of another: op j of seed s
# simulates config seeds s * SEED_STRIDE + j * batch, ...
SEED_STRIDE = 1_000_000
# A replay takes milliseconds, so an op replays at least this many logs,
# cycling through its batch, to give the median enough samples.
MIN_REPLAYS = 30
DEFAULT_SEED = 0  # goldens are recorded for this seed only


@dataclass(frozen=True)
class Sample:
    """One timed piece of an op; the run's rates are medians over these."""
    units: float    # trials, samples or sample-passes
    seconds: float  # work time, host probes excluded
    start: float    # perf_counter window, to find the host probes made
    end: float      # while this piece ran

    @property
    def rate(self) -> float:
        return self.units / self.seconds


def timed(clock, fn, *args, **kwargs):
    """(fn's value, work seconds by ``clock``, window start, window end)."""
    start, c0 = time.perf_counter(), clock()
    value = fn(*args, **kwargs)
    return value, clock() - c0, start, time.perf_counter()


@dataclass
class OpResult:
    produce: list[Sample]
    consume: list[Sample]
    sessions: int = 0   # for the human-readable sessions/replays rates
    bytes_written: int = 0
    problems: list[str] = field(default_factory=list)
    fingerprint: str = ""  # digest of every output byte, traced vs untraced
    golden: dict = field(default_factory=dict)  # digest record for goldens

    @property
    def work_s(self) -> float:
        return sum(x.seconds for x in self.produce + self.consume)


def _quiet_main(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def blank_recording_digests(log_text: str) -> str:
    """The log with every Responded.recording_digests entry emptied.

    Recording digests hash the plant's float arrays bit for bit; a plant
    rewrite that moves only the last bits changes them and nothing else.
    """
    lines = []
    for line in log_text.splitlines():
        event = json.loads(line)
        if event["kind"] == "Responded":
            payload = event["payload"]
            payload["recording_digests"] = ["" for _ in payload["recording_digests"]]
        lines.append(json.dumps(event, sort_keys=True))
    return "\n".join(lines) + "\n"


def plant_samples(log_text: str) -> int:
    """Plant samples the log's explorations took, accepted and rejected.

    In full plant mode the cost of a trial is its two explorations, and an
    exploration's cost is its sample count, which depends on the pace."""
    lines = log_text.splitlines()
    rate = json.loads(lines[0])["payload"]["config"]["device"]["control_rate"]
    total = per_exploration = 0
    for line in lines:
        if '"kind": "RunStarted"' in line:
            bpm = json.loads(line)["payload"]["bpm"]
            per_exploration = int(round(2.0 * 60.0 / bpm * rate)) + 1
        elif '"kind": "Responded"' in line:
            total += 2 * per_exploration
        elif '"kind": "ExplorationRejected"' in line:
            total += per_exploration
    return total


class SessionWorkload:
    """A `stifflab simulate` batch of consecutive seeds, then `stifflab
    replay` on every log it wrote."""

    def __init__(self, name: str, overrides: dict, batch: int):
        self.name = name
        self.overrides = overrides
        self.batch = batch
        self.config_path: Path | None = None
        self.velocities = 0
        self.plant_mode = "full"

    def params(self) -> dict:
        return {"config": "configs/default.json", "overrides": self.overrides,
                "sessions_per_op": self.batch,
                "replays_per_op": -(-MIN_REPLAYS // self.batch) * self.batch,
                "op_seeds": f"seed * {SEED_STRIDE} + op * {self.batch} + i",
                "golden_logs": "recording_digests blanked"
                if self.plant_mode == "full" else "byte-exact"}

    def setup(self, root: Path, work: Path, seed: int) -> None:
        base = root / "configs" / "default.json"
        raw = json.loads(base.read_text())
        self.velocities = len(raw["velocities"])
        self.plant_mode = {**raw, **self.overrides}.get("plant_mode", "full")
        if not self.overrides:
            self.config_path = base
            return
        for key, value in self.overrides.items():
            if isinstance(value, dict):
                raw.setdefault(key, {}).update(value)
            else:
                raw[key] = value
        self.config_path = work / f"{self.name}.json"
        self.config_path.write_text(json.dumps(raw, indent=2))

    def warmup(self, cli, out: Path) -> None:
        """One ideal-mode session through simulate and replay."""
        out.mkdir(parents=True)
        raw = json.loads(self.config_path.read_text())
        raw["plant_mode"] = "ideal"
        config = out / "warmup.json"
        config.write_text(json.dumps(raw))
        rc, _ = _quiet_main(cli, ["simulate", "--config", str(config),
                                  "--out", str(out)])
        log = next(out.glob("session_*.jsonl"), None)
        if rc != 0 or log is None or _quiet_main(cli, ["replay", "--log", str(log)])[0]:
            raise RuntimeError("warm-up session failed")

    def seeds(self, seed: int, op: int) -> list[int]:
        first = seed * SEED_STRIDE + op * self.batch
        return list(range(first, first + self.batch))

    def run(self, cli, seed: int, op: int, out: Path,
            clock=time.perf_counter) -> OpResult:
        seeds = self.seeds(seed, op)
        argv = ["simulate", "--config", str(self.config_path),
                "--sessions", str(self.batch), "--seed", str(seeds[0]),
                "--out", str(out)]
        logs = [out / f"session_{s:08d}.jsonl" for s in seeds]
        (rc, _), *simulate_time = timed(clock, _quiet_main, cli, argv)
        rounds = -(-MIN_REPLAYS // len(logs))
        replays, replay_times = [], []
        for _ in range(rounds):
            for log in logs:
                replay, *replay_time = timed(clock, _quiet_main, cli,
                                             ["replay", "--log", str(log)])
                replays.append(replay)
                replay_times.append(replay_time)

        problems = []
        if rc != 0:
            problems.append(f"simulate exited {rc}")
        if any(r != replays[i % len(logs)] for i, r in enumerate(replays)):
            problems.append("replaying the same log gave different results")
        replays = replays[:len(logs)]
        texts = {}
        for log, (replay_rc, _) in zip(logs, replays):
            if replay_rc != 0:
                problems.append(f"replay of {log.name} exited {replay_rc}")
            texts[log.name] = log.read_text() if log.exists() else ""
        summary_path = out / "summary.csv"
        summary = summary_path.read_text() if summary_path.exists() else ""
        problems += self._check_closure(logs, texts, replays, summary)

        log_trials = [texts[log.name].count('"kind": "Responded"') for log in logs]
        if self.plant_mode == "full":
            produced = sum(plant_samples(texts[log.name]) for log in logs)
        else:
            produced = sum(log_trials)
        fingerprint = hashlib.sha256()
        for name in sorted(texts):
            fingerprint.update(name.encode() + b"\0" + texts[name].encode())
        fingerprint.update(summary.encode())
        for _, stdout in replays:
            fingerprint.update(stdout.encode())
        return OpResult(
            produce=[Sample(produced, *simulate_time)],
            consume=[Sample(log_trials[i % len(logs)], *t)
                     for i, t in enumerate(replay_times)],
            sessions=len(seeds), problems=problems,
            bytes_written=sum(p.stat().st_size for p in out.iterdir()),
            fingerprint=fingerprint.hexdigest(),
            golden=self._golden_record(logs, texts, summary),
        )

    def _check_closure(self, logs, texts, replays, summary) -> list[str]:
        """Logged thresholds equal summary.csv exactly, and `replay` (which
        itself rejects a log whose recomputed threshold differs from the
        logged one) printed the same thresholds and trial counts."""
        problems = []
        rows = {}
        for row in csv.DictReader(io.StringIO(summary)):
            rows[(row["session_id"], float(row["velocity_deg_s"]))] = row
        if len(rows) != len(logs) * self.velocities:
            problems.append(f"summary.csv has {len(rows)} runs, expected "
                            f"{len(logs) * self.velocities}")
        for log, (_, stdout) in zip(logs, replays):
            session_id = log.stem
            printed = [line for line in stdout.splitlines()
                       if line.startswith("velocity ")]
            ended = [json.loads(line)["payload"] for line in
                     texts[log.name].splitlines()
                     if '"kind": "RunTerminated"' in line]
            if len(ended) != self.velocities or len(printed) != len(ended):
                problems.append(f"{log.name}: {len(ended)} runs logged, "
                                f"{len(printed)} replayed")
                continue
            for payload, line in zip(ended, printed):
                row = rows.get((session_id, payload["velocity_deg_s"]))
                expected = (f"velocity {payload['velocity_deg_s']} deg/s: "
                            f"threshold {payload['threshold_pct']:.2f}% "
                            f"({payload['trials']} trials)")
                if row is None or float(row["threshold_pct"]) != payload["threshold_pct"] \
                        or int(row["trials"]) != payload["trials"]:
                    problems.append(f"{log.name}: summary.csv disagrees with the "
                                    f"log at {payload['velocity_deg_s']} deg/s")
                elif line != expected:
                    problems.append(f"{log.name}: replay printed {line!r}, "
                                    f"expected {expected!r}")
        return problems

    def _golden_record(self, logs, texts, summary) -> dict:
        h = hashlib.sha256()
        for log in logs:
            text = texts[log.name]
            if self.plant_mode == "full" and text:
                text = blank_recording_digests(text)
            h.update(hashlib.sha256(text.encode()).digest())
        return {"logs_sha256": h.hexdigest(),
                "summary_sha256": hashlib.sha256(summary.encode()).hexdigest()}

    def check_golden(self, result: OpResult, golden: dict) -> list[str]:
        problems = []
        for key in ("logs_sha256", "summary_sha256"):
            if result.golden[key] != golden[key]:
                problems.append(f"{key} differs from the golden recorded for this op")
        return problems


class EmgWorkload:
    """One exploration's muscle activation drives `synthesize_emg` for the
    PQ and PT channels over a long 2 kHz record; `linear_envelope` then runs
    in forward and forward_backward mode on each channel."""

    name = "emg_envelope"
    rate = 2000.0        # Hz, as in `stifflab emg-demo`
    duration = 60.0      # s of record per op
    cutoff = 5.5         # Hz
    channels = (("PQ", 1.0), ("PT", 0.5))
    modes = (("forward", 1), ("forward_backward", 2))  # (mode, filter passes)
    golden_stride = 12_000  # samples between stored golden points
    check_len = 2_000       # samples checked against the reference recurrence

    def __init__(self):
        self.activation: np.ndarray | None = None
        self.exploration: dict = {}

    def params(self) -> dict:
        return {"sample_rate_hz": self.rate, "record_s": self.duration,
                "cutoff_hz": self.cutoff, "channels": dict(self.channels),
                "modes": [m for m, _ in self.modes], "dc_offset": 0.1,
                "exploration": self.exploration}

    def setup(self, root: Path, work: Path, seed: int) -> None:
        from stifflab import plant
        rng = np.random.default_rng(seed)
        bpm = float(rng.choice([45.0, 75.0]))
        k = round(1.11 * (1.0 + rng.uniform(0.1, 1.0)), 6)
        self.exploration = {"k": k, "bpm": bpm}
        recording = plant.simulate_exploration(
            plant.SpringParam(k=k), plant.plan_for_bpm(bpm), plant.LimbConfig(),
            plant.DeviceConfig(), rng)
        n = int(round(self.duration * self.rate))
        t = np.arange(n) / self.rate
        self.activation = np.interp(t % recording.time[-1], recording.time,
                                    recording.activation)

    def warmup(self, cli, out: Path) -> None:
        """The whole pipeline on a short record."""
        from stifflab import emg
        spec = emg.design_butterworth_lowpass(self.cutoff, self.rate)
        signal = emg.synthesize_emg(self.activation[:4000], self.rate,
                                    rng=np.random.default_rng(0))
        for mode, _ in self.modes:
            emg.linear_envelope(signal, spec, mode=mode)

    def run(self, cli, seed: int, op: int, out: Path,
            clock=time.perf_counter) -> OpResult:
        from stifflab import emg  # attribute lookups below see the tracer's wrappers
        rng = np.random.default_rng([seed, op])
        n = self.activation.size
        passes = sum(p for _, p in self.modes)
        signals, envelopes, produce, consume = {}, {}, [], []

        def envelope(signal):
            spec = emg.design_butterworth_lowpass(self.cutoff, self.rate)
            return spec, [emg.linear_envelope(signal, spec, mode=mode)
                          for mode, _ in self.modes]

        for channel, gain in self.channels:
            signals[channel], synth_s, start, _ = timed(
                clock, emg.synthesize_emg, self.activation, self.rate,
                gain=gain, dc_offset=0.1, rng=rng)
            (spec, outputs), env_s, _, end = timed(clock, envelope, signals[channel])
            produce.append(Sample(n, synth_s + env_s, start, end))
            consume.append(Sample(passes * n, env_s, start, end))
            for (mode, _), output in zip(self.modes, outputs):
                envelopes[channel, mode] = output

        problems = self._check(signals, envelopes, spec)
        fingerprint = hashlib.sha256()
        golden = {}
        for channel, _ in self.channels:
            arrays = {"raw": signals[channel].samples}
            arrays.update({mode: envelopes[channel, mode].samples
                           for mode, _ in self.modes})
            for key, values in arrays.items():
                fingerprint.update(np.ascontiguousarray(values).tobytes())
            golden[channel] = {key: {"sum": float(values.sum()),
                                     "points": values[::self.golden_stride].tolist()}
                               for key, values in arrays.items()}
        return OpResult(
            produce=produce, consume=consume, problems=problems, fingerprint=fingerprint.hexdigest(), golden=golden,
        )

    def _check(self, signals, envelopes, spec) -> list[str]:
        """Compare the envelope head (forward) and tail (forward_backward)
        against the direct-form-II-transposed recurrence the module
        documents, run here in plain Python on ``check_len`` samples."""
        problems = []
        m = self.check_len
        for channel, _ in self.channels:
            x = signals[channel].samples
            fwd = envelopes[channel, "forward"].samples
            fb = envelopes[channel, "forward_backward"].samples
            if not (fwd.size == fb.size == x.size == self.activation.size):
                problems.append(f"{channel}: envelope length differs from the record")
                continue
            if not (np.all(np.isfinite(fwd)) and np.all(np.isfinite(fb))):
                problems.append(f"{channel}: envelope is not finite")
                continue
            prepared = np.abs(x - x.mean())
            head = _reference_filter(prepared[:m].tolist(), spec.sections)
            tail = _reference_filter(fwd[-m:][::-1].tolist(), spec.sections)[::-1]
            scale = max(float(np.max(np.abs(fwd))), 1e-300)
            if np.max(np.abs(fwd[:m] - head)) > 1e-9 * scale:
                problems.append(f"{channel}: forward envelope differs from the "
                                "reference recurrence")
            if np.max(np.abs(fb[-m:] - tail)) > 1e-9 * scale:
                problems.append(f"{channel}: forward_backward envelope differs "
                                "from the reference recurrence")
        return problems

    def check_golden(self, result: OpResult, golden: dict) -> list[str]:
        problems = []
        for channel, arrays in golden.items():
            for key, want in arrays.items():
                got = result.golden[channel][key]
                points_ok = len(got["points"]) == len(want["points"]) and np.allclose(
                    got["points"], want["points"], rtol=1e-9, atol=1e-12)
                if not points_ok or not np.isclose(got["sum"], want["sum"],
                                                   rtol=1e-9, atol=1e-9):
                    problems.append(f"{channel} {key} differs from the golden record")
        return problems


def _reference_filter(samples: list[float], sections) -> np.ndarray:
    y = samples
    for b0, b1, b2, _, a1, a2 in sections:
        z1 = z2 = 0.0
        out = []
        for x in y:
            v = b0 * x + z1
            z1 = b1 * x - a1 * v + z2
            z2 = b2 * x - a2 * v
            out.append(v)
        y = out
    return np.asarray(y)


# The fixed explorations whose traces are checked against goldens in the
# session workloads: both paces, the reference and the staircase's first
# comparison spring, and one exploration with motor noise.
GOLDEN_EXPLORATIONS = (
    {"k": 1.11, "bpm": 45.0, "motor_noise_std": 0.0, "rng_seed": 0},
    {"k": 2.22, "bpm": 45.0, "motor_noise_std": 0.0, "rng_seed": 0},
    {"k": 1.11, "bpm": 75.0, "motor_noise_std": 0.0, "rng_seed": 0},
    {"k": 2.22, "bpm": 75.0, "motor_noise_std": 0.0, "rng_seed": 0},
    {"k": 1.41, "bpm": 75.0, "motor_noise_std": 0.3, "rng_seed": 12345},
)
EXPLORATION_STRIDE = 20  # every 20th angle sample is stored


def exploration_record(spec: dict) -> dict:
    from stifflab import plant
    recording = plant.simulate_exploration(
        plant.SpringParam(k=spec["k"]), plant.plan_for_bpm(spec["bpm"]),
        plant.LimbConfig(motor_noise_std=spec["motor_noise_std"]),
        plant.DeviceConfig(), np.random.default_rng(spec["rng_seed"]))
    return {**spec, "samples": len(recording.angle),
            "angle": recording.angle[::EXPLORATION_STRIDE].tolist(),
            "led_events": list(recording.led_events),
            "achieved_mean_velocity": recording.achieved_mean_velocity}


def check_explorations(goldens: list[dict]) -> list[str]:
    """Angle trace, LED events and achieved velocity within 1e-9."""
    problems = []
    for want in goldens:
        spec = {key: want[key] for key in ("k", "bpm", "motor_noise_std", "rng_seed")}
        got = exploration_record(spec)
        ok = (got["samples"] == want["samples"]
              and len(got["led_events"]) == len(want["led_events"])
              and np.allclose(got["angle"], want["angle"], rtol=0, atol=1e-9)
              and np.allclose(got["led_events"], want["led_events"], rtol=0, atol=1e-9)
              and abs(got["achieved_mean_velocity"]
                      - want["achieved_mean_velocity"]) <= 1e-9)
        if not ok:
            problems.append(f"exploration {spec} differs from its golden trace")
    return problems


def make_workloads() -> dict:
    return {w.name: w for w in (
        # The RK4 plant is over 99% of the time, and in a 3-session batch
        # ~86% of explorations repeat an earlier (k, plan, limb, device):
        # where a faster plant kernel or a noise-free memo shows.
        SessionWorkload("full_session", {}, batch=3),
        # Every exploration draws motor noise, so none repeats and a
        # noise-free memo is bypassed; ~4% of explorations are rejected and
        # 10% of trials are catch trials, so both of those paths run.
        SessionWorkload("noisy_session", {"limb": {"motor_noise_std": 0.3},
                                          "catch_trial_rate": 0.1}, batch=3),
        # No plant work: staircase, observer, event log, JSON and file
        # writes, then parse_log and the replay fold.
        SessionWorkload("ideal_batch", {"plant_mode": "ideal"}, batch=50),
        # The only workload that reaches stifflab.emg.
        EmgWorkload(),
    )}
