"""Batch front end: simulate sessions, validate staircase convergence,
trace a single run, and exercise the EMG pipeline.

Exit codes: 0 success, 1 validation failure, 2 usage or config error,
including a config whose explorations cannot be met (the repeat cap is
reached, or the plant integration is unstable).
Every command is deterministic under --seed.  Output files are never
overwritten without --force.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import emg, plant
from .observer import WeibullObserver, alpha_for_target
from .session import (
    SUMMARY_COLUMNS,
    ConfigError,
    CorruptLogError,
    RepeatLimitError,
    SessionConfig,
    config_from_dict,
    config_to_dict,
    default_config_dict,
    first_run,
    replay,
    run_session,
    summary_rows,
)
from .staircase import (convergence_target, default_config, new_staircase,
                        record_response, threshold_estimate)

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2


def _check_overwrite(paths, force: bool) -> None:
    for path in paths:
        if Path(path).exists() and not force:
            raise FileExistsError(
                f"{path} exists; pass --force to overwrite")


def _load_config(path: str, seed: int | None) -> SessionConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except ValueError as exc:  # not UTF-8, not JSON, or an integer int() refuses
        raise ConfigError(f"{path}: {exc}") from None
    if seed is not None and isinstance(raw, dict):  # config_from_dict rejects the rest
        raw["seed"] = seed
    return config_from_dict(raw)


def _check_seed(seed: int) -> None:
    if seed < 0:  # NumPy would refuse it only once the command is under way
        raise ConfigError(f"--seed must be a nonnegative integer, got {seed}")


def _session_worker(args: tuple[SessionConfig, dict, list[int]]) \
        -> list[tuple[str, list[dict]]]:
    """(log, summary rows) of each of the consecutive seeds' sessions, in
    seed order; the sessions share one exploration memo and ``base``'s
    config document."""
    base, document, seeds = args
    memo: dict = {}
    outputs = []
    for seed in seeds:
        config = replace(base, seed=seed)
        run = run_session(config, memo, document)
        rows = summary_rows(f"session_{seed:08d}", config, run.result)
        outputs.append((run.log_text, rows))
    return outputs


def _worker_count() -> int:
    threads = os.environ.get("STIFFLAB_THREADS", "0")
    try:
        requested = int(threads)
    except ValueError:
        raise ConfigError(
            f"STIFFLAB_THREADS must be an integer, got {threads!r}") from None
    # no more workers than the CPUs this process may run on: a pool may fork
    # every worker it is allowed on its first task
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    return min(requested, len(affinity(0)) if affinity else os.cpu_count() or 1)


def cmd_simulate(args) -> int:
    if args.sessions < 1:
        raise ConfigError(f"--sessions must be at least 1, got {args.sessions}")
    workers = _worker_count()
    config = _load_config(args.config, args.seed)
    out = Path(args.out)
    seeds = [config.seed + i for i in range(args.sessions)]
    paths = [out / f"session_{s:08d}.jsonl" for s in seeds]
    summary_path = out / "summary.csv"
    _check_overwrite([*paths, summary_path], args.force)

    document = config_to_dict(config)  # the sessions' documents differ only in seed
    if workers > 1 and len(seeds) > 1:
        size = -(-len(seeds) // workers)  # one contiguous chunk per worker
        chunks = [(config, document, seeds[i:i + size])
                  for i in range(0, len(seeds), size)]
        # a pool may start all its workers at once: start none without a chunk
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            outputs = [o for chunk in pool.map(_session_worker, chunks) for o in chunk]
    else:
        outputs = _session_worker((config, document, seeds))

    out.mkdir(parents=True, exist_ok=True)  # only once there is something to write
    all_rows = []
    for (log_text, rows), path in zip(outputs, paths):
        path.write_text(log_text)
        all_rows.extend(rows)
    with open(summary_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=SUMMARY_COLUMNS)
        writer.writeheader()
        writer.writerows(all_rows)
    print(f"wrote {len(paths)} session log(s) and {summary_path}")
    return EXIT_OK


def cmd_validate_convergence(args) -> int:
    if args.runs < 100:
        raise ConfigError("--runs must be at least 100")
    _check_seed(args.seed)
    # every refused --rule or --ratio is refused here, before any output
    target = convergence_target(args.rule, args.ratio)
    protocol = default_config_dict()
    reference = protocol["reference_stiffness"]
    stair = default_config(reference, down_rule=args.rule, down_up_ratio=args.ratio)
    # a Weibull observer whose target point is known, for threshold recovery
    observer = WeibullObserver(alpha=alpha_for_target(reference, target, beta=3.0), beta=3.0)
    print(f"zero-drift proportion-correct target: {target:.4f} "
          f"(rule={args.rule}-down, ratio={args.ratio})")
    rng = np.random.default_rng(args.seed)

    # drift of the level under a constant-probability responder at the target
    wide = replace(stair, reversal_limit=10**9, reversals_averaged=1,
                   level_floor=1e-9, level_cap=1e9)
    state = new_staircase(wide)
    n_trials = 100_000
    for _ in range(n_trials):
        state = record_response(state, rng.random() < target, wide)
    drift = (state.level - wide.initial_level) / n_trials / wide.up_step
    print(f"mean signed step per trial (up-step units): {drift:+.5f}")

    # threshold recovery with the observer
    velocity = protocol["velocities"][0]["deg_s"]
    finals = []
    for _ in range(args.runs):
        state = new_staircase(stair)
        while not state.terminated:
            correct = rng.random() < observer.p_different(state.level, velocity)
            state = record_response(state, correct, stair)
        finals.append(state)
    thresholds = [threshold_estimate(s, stair).percent_of_reference for s in finals]
    tail = sum(s.tail_correct for s in finals) / sum(s.tail_total for s in finals)
    mean_pct = float(np.mean(thresholds))
    sem = float(np.std(thresholds, ddof=1) / np.sqrt(len(thresholds)))
    bias = abs(mean_pct - 100.0)
    print(f"tail proportion correct over {args.runs} runs: {tail:.4f} "
          f"(target {target:.4f})")
    print(f"mean recovered threshold: {mean_pct:.2f}% of reference "
          f"(SE {sem:.2f}%), observer target point 100%")

    ok = abs(tail - target) <= 0.02 and abs(drift) <= 0.02 and bias <= 8.0
    print("PASS" if ok else "FAIL")
    return EXIT_OK if ok else EXIT_VALIDATION


def cmd_trace(args) -> int:
    config = _load_config(args.config, args.seed)
    out = Path(args.out)
    _check_overwrite([out], args.force)
    run, events = first_run(config)
    rows = []  # [trial, level, response, reversal flag] of run 1's staircase trials
    for _, kind, _, payload in events:
        if kind == "RunTerminated":
            break
        # a catch trial's events carry the next staircase trial's number: skip them
        if kind == "Presented" and not payload["catch"]:
            rows.append([payload["trial"], payload["level"], None, 0])
        elif kind == "Responded" and not payload["catch"]:
            rows[-1][2] = payload["response"]
        elif kind == "Reversal":
            rows[-1][3] = 1
    with open(out, "w", newline="") as fh:
        fh.write("trial,level_pct,response,reversal_flag\n")
        for trial, level, response, reversal in rows:
            pct = 100.0 * level / config.reference_stiffness
            fh.write(f"{trial},{pct!r},{response},{reversal}\n")
    print(f"wrote {out} ({len(rows)} trials, "
          f"velocity {run.velocity} deg/s)")
    return EXIT_OK


def cmd_emg_demo(args) -> int:
    emg_rate = 2000.0
    # nan and inf have no sample count; a duration under half a sample has none
    n = round(args.duration * emg_rate) if math.isfinite(args.duration) else 0
    if n < 1:
        raise ConfigError(f"--duration must be finite and round to at least one "
                          f"{emg_rate:g} Hz sample, got {args.duration}")
    _check_seed(args.seed)
    out = Path(args.out)
    names = [f"{ch}_{kind}.csv" for ch in ("pq", "pt")
             for kind in ("raw", "envelope")]
    paths = [out / n for n in names]
    _check_overwrite(paths, args.force)

    rng = np.random.default_rng(args.seed)
    protocol = default_config_dict()  # its reference spring at its slower pace
    recording = plant.simulate_exploration(
        plant.SpringParam(k=protocol["reference_stiffness"]),
        plant.plan_for_bpm(protocol["velocities"][0]["bpm"]), plant.LimbConfig(),
        plant.DeviceConfig(), rng)

    try:  # a record too long to hold is refused before anything is written
        t = np.arange(n) / emg_rate
        cycle = recording.time[-1]
        activation = np.interp(t % cycle, recording.time, recording.activation)
    except MemoryError as exc:
        raise ConfigError(f"--duration {args.duration} s is too long: {exc}") from None
    spec = emg.design_butterworth_lowpass(5.5, emg_rate)

    out.mkdir(parents=True, exist_ok=True)  # only once there is something to write
    # PQ carries more activity than PT in this task
    for channel, gain in (("PQ", 1.0), ("PT", 0.5)):
        signal = emg.synthesize_emg(activation, emg_rate, gain=gain,
                                    dc_offset=0.1, rng=rng)
        envelope = emg.linear_envelope(signal, spec)
        emg.write_signal_csv(signal, out / f"{channel.lower()}_raw.csv")
        emg.write_signal_csv(envelope, out / f"{channel.lower()}_envelope.csv")
    print(f"wrote {len(paths)} CSV files to {out}")
    return EXIT_OK


def _log_text(data: bytes) -> str:
    """``data`` read as a text-mode ``open`` reads a UTF-8 file (universal
    newlines).  Bytes that are not UTF-8 raise CorruptLogError naming the line
    that ``parse_log`` would give them."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the lines read so far; the "x" counts the unfinished one
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise CorruptLogError(f"line {line} is not UTF-8: byte {exc.start} "
                              f"({exc.reason})") from None
    if "\r" in text:  # a scan costs far less than two replace() copies
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def cmd_replay(args) -> int:
    with open(args.log, "rb") as fh:
        data = fh.read()
    try:
        text = _log_text(data)
        result = replay(text)
    except CorruptLogError as exc:
        print(f"corrupt log: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for run in result.runs:
        print(f"velocity {run.velocity} deg/s: threshold "
              f"{run.threshold.percent_of_reference:.2f}% "
              f"({run.trial_count} trials)")
    print(f"log digest: {hashlib.sha256(text.encode()).hexdigest()}")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and then reused: parsing
    leaves it unchanged, and each parse returns a fresh namespace.  It holds
    no command function; ``main`` looks the command up when it runs."""
    parser = argparse.ArgumentParser(
        prog="stifflab",
        description="Simulated stiffness-discrimination experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run simulated sessions")
    p.add_argument("--config", required=True)
    p.add_argument("--sessions", type=int, default=1)
    p.add_argument("--out", default="out")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true")

    protocol = default_config(default_config_dict()["reference_stiffness"])
    p = sub.add_parser("validate-convergence",
                       help="check the staircase converges to its target")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rule", type=int, default=protocol.down_rule)
    p.add_argument("--ratio", type=float, default=protocol.down_up_ratio)

    p = sub.add_parser("trace", help="per-trial staircase trace for one run")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("emg-demo", help="synthesize EMG and envelopes")
    p.add_argument("--duration", type=float, default=10.0)
    p.add_argument("--out", default="emg_out")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--force", action="store_true")

    p = sub.add_parser("replay", help="recompute results from an event log")
    p.add_argument("--log", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    command = {"simulate": cmd_simulate,
               "validate-convergence": cmd_validate_convergence,
               "trace": cmd_trace, "emg-demo": cmd_emg_demo,
               "replay": cmd_replay}[args.command]
    try:
        return command(args)
    # OSError: a path that is missing, a directory, unreadable, or not --force'd
    except (ConfigError, OSError, RepeatLimitError,
            plant.UnstableIntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
