"""Record perfbench/goldens.json from the current sources.

    python3 perfbench/record_goldens.py

Run this only at a commit whose outputs are known to be right: the goldens
are what later commits are checked against at the default seed.  It takes
a few minutes (the full-plant ops dominate).
"""

from __future__ import annotations

import json
import shutil
import sys

from run import OUT, ROOT, import_stifflab
from workloads import (DEFAULT_SEED, GOLDEN_EXPLORATIONS, exploration_record,
                       make_workloads)

# ops recorded per workload: several times what one run does today, so a
# faster program is still checked against goldens on every op it runs
GOLDEN_OPS = {"full_session": 4, "noisy_session": 4, "ideal_batch": 200,
              "emg_envelope": 16}


def main() -> int:
    cli = import_stifflab()
    goldens = {"default_seed": DEFAULT_SEED,
               "explorations": [exploration_record(spec)
                                for spec in GOLDEN_EXPLORATIONS]}
    for name, workload in make_workloads().items():
        work = OUT / "goldens" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload.setup(ROOT, work, DEFAULT_SEED)
        records = []
        for op in range(GOLDEN_OPS[name]):
            out = work / "op"
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir()
            result = workload.run(cli, DEFAULT_SEED, op, out)
            if result.problems:
                print(f"{name} op {op}: {result.problems}", file=sys.stderr)
                return 1
            records.append(result.golden)
        goldens[name] = records
        shutil.rmtree(work)
        print(f"{name}: {len(records)} ops recorded", flush=True)
    path = ROOT / "perfbench" / "goldens.json"
    path.write_text(json.dumps(goldens, separators=(",", ":")) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
