"""stifflab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload full_session --seed 0 --seconds 25 --trace 0

Run from anywhere inside a source checkout; the package is imported from
the checkout's ``src/``.  With ``--trace 0`` the run measures the end-to-end
metrics with nothing wrapped.  With ``--trace 1`` every op runs twice,
untraced and traced on the same inputs (alternating which goes first), and
the run reports the per-layer metrics plus the tracing overhead; the two
halves of every pair must write byte-identical outputs.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  The full
result, with provenance, is written to ``.perfbench_out/`` in the checkout,
and a traced run also writes its spans there.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import hostspeed
from tracer import Tracer
from workloads import DEFAULT_SEED, check_explorations, make_workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIG = ROOT / "configs" / "default.json"
OUT = ROOT / ".perfbench_out"
SETUP_RUNS = 7

END_TO_END = {
    "setup_s": "s",
    "produce_per_s": "1/s",
    "consume_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "plant.explorations": "count", "plant.samples": "count",
    "plant.busy_s": "s", "plant.self_s": "s", "plant.self_share": "ratio",
    "plant.us_per_sample": "us", "plant.trajectory_s": "s",
    "plant.accept_ratio": "ratio", "plant.repeat_share": "ratio",
    "staircase.calls": "count", "staircase.busy_s": "s",
    "staircase.reversals": "count",
    "observer.calls": "count", "observer.busy_s": "s",
    "session.runs": "count", "session.self_s": "s", "session.events": "count",
    "session.log_bytes": "bytes", "session.serialize_s": "s",
    "session.config_s": "s", "session.replay_self_s": "s", "session.parse_s": "s",
    "cli.self_s": "s", "cli.bytes_written": "bytes",
    "emg.samples": "count", "emg.design_s": "s", "emg.synthesize_s": "s",
    "emg.prep_s": "s", "emg.filter_s": "s", "emg.ns_per_sample": "ns",
    "trace.overhead": "ratio", "trace.wrapper_overhead": "ratio",
    "trace.wall_s": "s", "trace.spans": "count",
}

# Fresh interpreter: import the CLI (which imports every module) and parse
# the default config; print the monotonic clock, shared across processes.
SETUP_PROBE = """\
import json, sys, time
sys.path.insert(0, sys.argv[1])
import stifflab.cli
from stifflab.session import config_from_dict
with open(sys.argv[2]) as fh:
    config_from_dict(json.load(fh))
print(time.monotonic_ns())
"""


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def measure_setup_s(env: dict) -> float:
    """Median over SETUP_RUNS fresh interpreters.

    Not scaled by the host probe: process start-up is kernel and loader
    work, which the probe does not track (scaling widened the spread)."""
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(SRC), str(CONFIG)],
            env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise BenchmarkError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append((int(proc.stdout.strip()) - t0) * 1e-9)
    return statistics.median(times)


def provenance(args, workload, inherited_threads) -> dict:
    import numpy
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        source.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        source.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "workload": workload.name,
        "workload_params": workload.params(),
        "stifflab_threads_unset": True,
        "stifflab_threads_inherited": inherited_threads,
    }


def run_op(workload, cli, seed, op, out: Path, clock):
    """(OpResult or None, problems) for one op in a fresh output directory."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        return workload.run(cli, seed, op, out, clock), []
    except Exception:  # an op that raises is a failed op, not a dead benchmark
        return None, [traceback.format_exc(limit=3).strip().splitlines()[-1]]


def layer_metrics(tracer, ops) -> dict:
    incl, own, calls = tracer.totals()
    counts = tracer.counts
    halves = {}  # op id -> {traced: work seconds}
    for op_id, traced, result, _ in ops:
        if result is not None:
            halves.setdefault(op_id, {})[traced] = result.work_s
    pairs = [h for h in halves.values() if len(h) == 2]
    traced_wall = sum(h[True] for h in pairs)
    untraced_wall = sum(h[False] for h in pairs)

    def s(*names, table=incl):
        return sum(table.get(n, 0) for n in names) * 1e-9

    def ratio(num, den):
        return num / den if den else 0.0

    plant_self = sum(v for k, v in own.items() if k.startswith("plant.")) * 1e-9
    return {
        "plant.explorations": counts["plant.explorations"],
        "plant.samples": counts["plant.samples"],
        "plant.busy_s": tracer.layer_busy_ns("plant") * 1e-9,
        "plant.self_s": plant_self,
        "plant.self_share": ratio(plant_self, traced_wall),
        "plant.us_per_sample": ratio(s("plant.simulate_exploration") * 1e6,
                                     counts["plant.samples"]),
        "plant.trajectory_s": s("plant.min_jerk_trajectory"),
        "plant.accept_ratio": ratio(counts["plant.accepted"], counts["plant.checks"]),
        "plant.repeat_share": ratio(counts["plant.repeats"],
                                    counts["plant.explorations"]),
        "staircase.calls": sum(v for k, v in calls.items()
                               if k.startswith("staircase.")),
        "staircase.busy_s": tracer.layer_busy_ns("staircase") * 1e-9,
        "staircase.reversals": counts["staircase.reversals"],
        "observer.calls": sum(v for k, v in calls.items()
                              if k.startswith("observer.")),
        "observer.busy_s": tracer.layer_busy_ns("observer") * 1e-9,
        "session.runs": calls["session.run_session"],
        "session.self_s": s("session.run_session", table=own),
        "session.events": counts["session.events"],
        "session.log_bytes": counts["session.log_bytes"],
        "session.serialize_s": s("session.serialize_log"),
        "session.config_s": s("session.config_from_dict", "session.config_to_dict"),
        "session.replay_self_s": s("session.replay", table=own),
        "session.parse_s": s("session.parse_log"),
        "cli.self_s": s("cli.main", "cli.cmd_simulate", "cli.cmd_replay", table=own),
        "cli.bytes_written": counts["cli.bytes_written"],
        "emg.samples": counts["emg.synthesized"],
        "emg.design_s": s("emg.design_butterworth_lowpass"),
        "emg.synthesize_s": s("emg.synthesize_emg"),
        "emg.prep_s": s("emg.remove_dc", "emg.rectify"),
        "emg.filter_s": s("emg.apply_filter"),
        "emg.ns_per_sample": ratio(s("emg.apply_filter") * 1e9,
                                   counts["emg.filtered"]),
        "trace.overhead": statistics.median(h[True] / h[False] for h in pairs) - 1.0
        if pairs else 0.0,
        "trace.wrapper_overhead": ratio(len(tracer.names) * tracer.span_cost_s(),
                                        untraced_wall),
        "trace.wall_s": traced_wall,
        "trace.spans": len(tracer.names),
    }


def import_stifflab():
    """stifflab.cli from this checkout's src/, never from an installed copy."""
    if not (SRC / "stifflab" / "__init__.py").is_file() or not CONFIG.is_file():
        raise BenchmarkError(f"no stifflab sources under {ROOT}")
    sys.path.insert(0, str(SRC))
    import stifflab.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchmarkError(f"stifflab imported from {cli.__file__}, not {SRC}")
    return cli


def measure(workload, cli, args, work: Path, tracer, clock):
    """Closed-loop ops until --seconds is closest to used up.

    Returns (ops, measured s); each op is (op id,
    traced, OpResult or None, problems).  Traced runs run each op twice,
    alternating which half goes first, and compare their outputs.
    """
    ops = []
    start = time.perf_counter()
    op = 0
    while True:
        t0 = time.perf_counter()
        order = [False, True] if op % 2 == 0 else [True, False]
        for traced in (order if tracer else [False]):
            if traced:
                tracer.begin_op(op)
                tracer.install()
            try:
                result, problems = run_op(workload, cli, args.seed, op,
                                          work / ("traced" if traced else "op"), clock)
            finally:
                if traced:
                    tracer.uninstall()
            if result is not None and traced:
                tracer.counts["cli.bytes_written"] += result.bytes_written
            ops.append((op, traced, result, problems))
        if tracer:
            (_, _, a, _), (_, _, b, _) = ops[-2:]
            if a is not None and b is not None and a.fingerprint != b.fingerprint:
                ops[-1][3].append("traced and untraced runs wrote different bytes")
        op_wall = time.perf_counter() - t0
        op += 1
        if time.perf_counter() - start + op_wall / 2 >= args.seconds:
            break
    return ops, time.perf_counter() - start


def benchmark(args) -> tuple[dict, list[str]]:
    inherited_threads = os.environ.pop("STIFFLAB_THREADS", None)
    cli = import_stifflab()

    workloads = make_workloads()
    if args.workload not in workloads:
        raise BenchmarkError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads)}")
    workload = workloads[args.workload]
    goldens = json.loads((HERE / "goldens.json").read_text())
    work = OUT / "work" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    setup_s = measure_setup_s(dict(os.environ))
    workload.setup(ROOT, work, args.seed)
    # lazy imports and first-call costs are paid before timing starts
    workload.warmup(cli, work / "warmup")

    tracer = Tracer() if args.trace else None
    sampler = hostspeed.Sampler()
    # the sampler's probes would land inside traced spans, so a traced run
    # reports unscaled per-layer times and probes nothing
    with contextlib.nullcontext() if tracer else sampler:
        ops, measured_s = measure(
            workload, cli, args, work, tracer, sampler.clock)

    # correctness beyond what each op checked itself
    golden_ops = goldens.get(workload.name, [])
    for op_id, traced, result, problems in ops:
        if result is None:
            continue
        problems.extend(result.problems)
        if args.seed == DEFAULT_SEED and not traced and op_id < len(golden_ops):
            problems.extend(workload.check_golden(result, golden_ops[op_id]))
    if workload.name != "emg_envelope":  # seed-independent, counted as one op
        ops.append(("explorations", False, None,
                    check_explorations(goldens["explorations"])))

    attempted = len(ops)
    failures = [problems[0] for *_, problems in ops if problems]
    done = [r for _, traced, r, _ in ops if r is not None and not traced]
    if not done:
        raise BenchmarkError(f"no op completed: {failures[:3]}")
    produced = [x for r in done for x in r.produce]
    consumed = [x for r in done for x in r.consume]
    produce = statistics.median(x.rate for x in produced)
    consume = statistics.median(x.rate for x in consumed)

    if tracer:
        metrics, units = layer_metrics(tracer, ops), PER_LAYER
        tracer.write(OUT / f"{workload.name}.spans.json")
    else:
        def scaled(samples):
            """Median rate, each scaled by the host probes of its own window."""
            return statistics.median(
                x.rate * hostspeed.probe_near(sampler.samples, x.start, x.end)
                / hostspeed.REFERENCE_S for x in samples)

        metrics, units = {
            "setup_s": setup_s,
            "produce_per_s": scaled(produced),
            "consume_per_s": scaled(consumed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }, END_TO_END

    # the ROADMAP's names for the same measurements, unscaled, per workload
    if workload.name == "emg_envelope":
        named = {"envelope_msamples_per_s": (consume / 1e6, "Msamples/s"),
                 "pipeline_msamples_per_s": (produce / 1e6, "Msamples/s")}
    else:
        named = {"sessions_per_s": (statistics.median(
                     r.sessions / x.seconds for r in done for x in r.produce), "1/s"),
                 "replays_per_s": (statistics.median(
                     1.0 / x.seconds for x in consumed), "1/s")}
    named["error_rate"] = (len(failures) / attempted, f"of {attempted} ops")
    probes = [seconds for _, seconds in sampler.samples]

    record = {
        "provenance": provenance(args, workload, inherited_threads),
        "measured_s": measured_s,
        "host_probes": sampler.samples,  # (perf_counter, seconds)
        "ops": [{"op": op_id, "traced": traced, "ok": not problems,
                 "problems": problems,
                 **({} if r is None else {
                     "produce": [vars(x) for x in r.produce],
                     "consume": [vars(x) for x in r.consume]})}
                for op_id, traced, r, problems in ops],
        "metrics": metrics,
        "unscaled": {k: v[0] for k, v in named.items()},
    }
    (OUT / f"{workload.name}.trace{int(args.trace)}.json").write_text(
        json.dumps(record, indent=1))
    shutil.rmtree(work, ignore_errors=True)

    lines = [f"workload {workload.name}, seed {args.seed}, "
             f"{'traced' if args.trace else 'untraced'}: {len(ops)} ops in "
             f"{measured_s:.1f} s, {len(failures)} failed",
             "  unscaled, on this host"
             + (f" (median host probe {statistics.median(probes) * 1e3:.3f} ms, "
                f"reference {hostspeed.REFERENCE_S * 1e3:g} ms):" if probes else ":")]
    lines += [f"    {name} = {value:.6g} {unit}" for name, (value, unit) in named.items()]
    lines.append("  " + ("per layer:" if tracer else "scaled to the reference host:"))
    lines += [f"    {name} = {metrics[name]:.6g} {unit}" for name, unit in units.items()]
    lines += [f"  failure: {p}" for p in failures[:10]]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, lines


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter, output passed on."""
    status = 0
    for name in make_workloads():
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)])
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    try:
        result, lines = benchmark(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
