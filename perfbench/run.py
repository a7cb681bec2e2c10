"""Wall-clock benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload serve-steady [--seed 7]
        [--seconds 10] [--trace 0|1]

Run from the repository root.  Standard output ends with the host
fingerprint as one JSON line, then the result as the last line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` gives
the end-to-end metrics; ``--trace 1`` makes the separate traced run and
gives the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
#: scratch space for study caches, removed before the process exits
WORKDIR = ROOT / ".perfbench-work"


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"error: program source {source} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from perfbench import harness, host
    from perfbench.workloads import make_workload

    print(json.dumps({"host": host.fingerprint()}, sort_keys=True), flush=True)
    workdir = WORKDIR / str(os.getpid())
    try:
        workload = make_workload(args.workload, workdir)
        measure = harness.measure_traced if args.trace else harness.measure
        metrics, tally = measure(workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKDIR.rmdir()
        except OSError:
            pass  # absent, or another run still uses it
    result = {
        "correct": tally.attempted > 0 and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
