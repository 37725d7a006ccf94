#!/usr/bin/env python3
"""Record the reference outputs every benchmark run is checked against.

    python3 perfbench/record_reference.py

Runs each workload's full-size command at one worker for the CLI seeds
0..POOL-1 and writes perfbench/reference.json. Record it at a commit whose
outputs are trusted: a later change that moves an output beyond the
tolerances in run.py fails the benchmark's correctness check.
"""

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    recorded = {}
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
        for wl in run.workloads(smoke=False).values():
            seeds = {}
            for seed in range(run.POOL):
                call = run.invoke(wl, seed, 1, Path(tmp))
                seeds[str(seed)] = run.summary(wl.command[0], call.report, call.rc)
                print(f"{wl.name} seed {seed}: exit {call.rc}, {call.wall:.2f} s",
                      flush=True)
            recorded[wl.name] = {"command": list(wl.command), "seeds": seeds}
    run.REFERENCE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
