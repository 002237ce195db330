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
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import emg, plant
from .observer import BernoulliObserver, WeibullObserver, alpha_for_target
from .session import (
    SUMMARY_COLUMNS,
    ConfigError,
    CorruptLogError,
    RepeatLimitError,
    SessionConfig,
    config_from_dict,
    default_config_dict,
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


def _session_worker(args: tuple[SessionConfig, list[int]]) \
        -> list[tuple[str, list[dict]]]:
    """(log, summary rows) of each of the consecutive seeds' sessions, in
    seed order; the sessions share one exploration memo."""
    base, seeds = args
    memo: dict = {}
    outputs = []
    for seed in seeds:
        config = replace(base, seed=seed)
        run = run_session(config, memo)
        rows = summary_rows(f"session_{seed:08d}", config, run.result)
        outputs.append((run.log_text, rows))
    return outputs


def _worker_count() -> int:
    threads = os.environ.get("STIFFLAB_THREADS", "0")
    try:
        return int(threads)
    except ValueError:
        raise ConfigError(
            f"STIFFLAB_THREADS must be an integer, got {threads!r}") from None


def cmd_simulate(args) -> int:
    if args.sessions < 1:
        print(f"error: --sessions must be at least 1, got {args.sessions}",
              file=sys.stderr)
        return EXIT_USAGE
    workers = _worker_count()
    config = _load_config(args.config, args.seed)
    out = Path(args.out)
    seeds = [config.seed + i for i in range(args.sessions)]
    paths = [out / f"session_{s:08d}.jsonl" for s in seeds]
    summary_path = out / "summary.csv"
    _check_overwrite([*paths, summary_path], args.force)

    if workers > 1 and len(seeds) > 1:
        size = -(-len(seeds) // workers)  # one contiguous chunk per worker
        chunks = [(config, seeds[i:i + size]) for i in range(0, len(seeds), size)]
        # a pool may start all its workers at once: start none without a chunk
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            outputs = [o for chunk in pool.map(_session_worker, chunks) for o in chunk]
    else:
        outputs = _session_worker((config, seeds))

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
        print("error: --runs must be at least 100", file=sys.stderr)
        return EXIT_USAGE
    target = convergence_target(args.rule, args.ratio)
    print(f"zero-drift proportion-correct target: {target:.4f} "
          f"(rule={args.rule}-down, ratio={args.ratio})")
    rng = np.random.default_rng(args.seed)

    reference = default_config_dict()["reference_stiffness"]
    stair = default_config(reference, down_rule=args.rule, down_up_ratio=args.ratio)

    # drift of the level under a constant-probability responder at the target
    wide = replace(stair, reversal_limit=10**9, reversals_averaged=1,
                   level_floor=1e-9, level_cap=1e9)
    bernoulli = BernoulliObserver(p_different=target)
    state = new_staircase(wide)
    n_trials = 100_000
    for _ in range(n_trials):
        correct = bernoulli.respond(1.0, 2.0, 67.5, rng).value == "different"
        state = record_response(state, correct, wide)
    drift = (state.level - wide.initial_level) / n_trials / wide.up_step
    print(f"mean signed step per trial (up-step units): {drift:+.5f}")

    # threshold recovery with a Weibull observer whose target point is known
    alpha = alpha_for_target(reference, target, beta=3.0)
    observer = WeibullObserver(alpha=alpha, beta=3.0)
    thresholds = []
    tail_correct = tail_total = 0
    for _ in range(args.runs):
        state = new_staircase(stair)
        while not state.terminated:
            delta = state.level
            p = observer.p_different(delta, 67.5)
            correct = rng.random() < p
            if len(state.reversals) >= 2:
                tail_total += 1
                tail_correct += int(correct)
            state = record_response(state, correct, stair)
        thresholds.append(
            threshold_estimate(state, stair).percent_of_reference)
    tail = tail_correct / tail_total
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
    run = run_session(config)
    rows = run.trials[0]  # the first executed run
    with open(out, "w", newline="") as fh:
        fh.write("trial,level_pct,response,reversal_flag\n")
        for row in rows:
            pct = 100.0 * row.level / config.reference_stiffness
            fh.write(f"{row.trial},{pct!r},{row.response},{int(row.reversal)}\n")
    print(f"wrote {out} ({len(rows)} trials, "
          f"velocity {run.result.velocity_order[0]} deg/s)")
    return EXIT_OK


def cmd_emg_demo(args) -> int:
    emg_rate = 2000.0
    # nan and inf have no sample count; a duration under half a sample has none
    n = round(args.duration * emg_rate) if math.isfinite(args.duration) else 0
    if n < 1:
        print(f"error: --duration must be finite and round to at least one "
              f"{emg_rate:g} Hz sample, got {args.duration}", file=sys.stderr)
        return EXIT_USAGE
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    names = [f"{ch}_{kind}.csv" for ch in ("pq", "pt")
             for kind in ("raw", "envelope")]
    paths = [out / n for n in names]
    _check_overwrite(paths, args.force)

    rng = np.random.default_rng(args.seed)
    plan = plant.plan_for_bpm(45.0)
    recording = plant.simulate_exploration(
        plant.SpringParam(k=1.11), plan, plant.LimbConfig(),
        plant.DeviceConfig(), rng)

    t = np.arange(n) / emg_rate
    cycle = recording.time[-1]
    activation = np.interp(t % cycle, recording.time, recording.activation)
    spec = emg.design_butterworth_lowpass(5.5, emg_rate)

    # PQ carries more activity than PT in this task
    for channel, gain in (("PQ", 1.0), ("PT", 0.5)):
        signal = emg.synthesize_emg(activation, emg_rate, gain=gain,
                                    dc_offset=0.1, rng=rng)
        signal = emg.EmgSignal(sample_rate=emg_rate, samples=signal.samples,
                               channel=channel)
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
        result = replay(_log_text(data))
    except CorruptLogError as exc:
        print(f"corrupt log: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for run in result.runs:
        print(f"velocity {run.velocity} deg/s: threshold "
              f"{run.threshold.percent_of_reference:.2f}% "
              f"({run.trial_count} trials)")
    print(f"log digest: {result.log_digest}")
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

    p = sub.add_parser("validate-convergence",
                       help="check the staircase converges to its target")
    p.add_argument("--runs", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rule", type=int, default=3)
    p.add_argument("--ratio", type=float, default=0.7393)

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
