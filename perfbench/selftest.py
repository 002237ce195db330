"""Self-test of the benchmark itself (about half a minute).

    python3 perfbench/selftest.py

1. A log with one flipped ``correct`` is counted as one failed op.
2. Traced and untraced runs of the same inputs write byte-identical
   outputs: tracing draws no random numbers and moves no byte.  This is
   checked on ideal_batch through the traced benchmark loop, and on a
   one-session noisy_session op, where the plant draws motor noise.
3. BENCHMARK.json names exactly the metrics and units the runner prints.

Exits 0 when every check holds and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

import run
from tracer import Tracer
from workloads import make_workloads


def flipped_correct_counts_as_failure(cli) -> list[str]:
    original = cli.main
    flipped = []

    def flip_once(argv):
        rc = original(argv)
        out = argv[argv.index("--out") + 1] if "--out" in argv else ""
        if argv[0] == "simulate" and out.endswith("/op") and not flipped:
            log = sorted(Path(out).glob("session_*.jsonl"))[0]
            lines = log.read_text().splitlines()
            for i, line in enumerate(lines):
                event = json.loads(line)
                if event["kind"] == "Responded" and not event["payload"]["catch"]:
                    event["payload"]["correct"] = not event["payload"]["correct"]
                    lines[i] = json.dumps(event, sort_keys=True)
                    break
            log.write_text("\n".join(lines) + "\n")
            flipped.append(log.name)
        return rc

    cli.main = flip_once
    try:
        result, lines = run.benchmark(argparse.Namespace(
            workload="ideal_batch", seed=0, seconds=1.0, trace=0))
    finally:
        cli.main = original
    if flipped and result["failed"] == 1 and not result["correct"]:
        return []
    return [f"flipped `correct` in {flipped}: failed={result['failed']} "
            f"of {result['attempted']}, expected exactly 1"]


def traced_loop_is_byte_identical() -> list[str]:
    result, lines = run.benchmark(argparse.Namespace(
        workload="ideal_batch", seed=1, seconds=1.0, trace=1))
    if result["failed"] or result["metrics"]["trace.spans"]["value"] == 0:
        return ["traced ideal_batch run: " + "; ".join(lines)]
    return []


def noisy_op_is_byte_identical(cli) -> list[str]:
    workload = make_workloads()["noisy_session"]
    workload.batch = 1
    work = run.OUT / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.setup(run.ROOT, work, seed=5)
    plain = workload.run(cli, 5, 0, _fresh(work / "plain"))
    tracer = Tracer()
    tracer.begin_op(0)
    tracer.install()
    try:
        traced = workload.run(cli, 5, 0, _fresh(work / "traced"))
    finally:
        tracer.uninstall()
    shutil.rmtree(work)
    problems = plain.problems + traced.problems
    if tracer.counts["plant.explorations"] == 0:
        problems.append("the traced noisy op recorded no plant spans")
    if plain.fingerprint != traced.fingerprint:
        problems.append("traced and untraced noisy_session ops wrote different bytes")
    return problems


def benchmark_json_matches() -> list[str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared_e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    declared_workloads = {w["name"] for w in spec["workloads"]}
    problems = []
    if declared_e2e != run.END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if declared_layer != run.PER_LAYER:
        problems.append("BENCHMARK.json per_layer differs from run.PER_LAYER")
    if declared_workloads != set(make_workloads()):
        problems.append("BENCHMARK.json workloads differ from make_workloads()")
    return problems


def _fresh(path):
    path.mkdir(parents=True)
    return path


def main() -> int:
    cli = run.import_stifflab()
    failures = []
    for name, check in (
            ("flipped correct is a failed op", lambda: flipped_correct_counts_as_failure(cli)),
            ("traced ideal_batch loop is byte-identical", traced_loop_is_byte_identical),
            ("traced noisy op is byte-identical", lambda: noisy_op_is_byte_identical(cli)),
            ("BENCHMARK.json matches the runner", benchmark_json_matches)):
        problems = check()
        print(f"{'PASS' if not problems else 'FAIL'} {name}")
        for problem in problems:
            print(f"  {problem}")
        failures += problems
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
