"""Record the golden output digests that run.py checks every run against.

    python3 benchmarks/record_golden.py [--seeds 20]

Runs each workload once per seed 0..N-1 and writes golden.json with the
platform fingerprint and the effective config of each workload.  Record
again only when a change alters the numbers on purpose, and say so.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import GOLDEN, WORKLOADS  # noqa: E402
from run import RUNS_DIR, run_worker  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=20)
    args = ap.parse_args(argv)
    golden = {"platform": None, "workloads": {}}
    try:
        for workload in WORKLOADS:
            digests = {}
            for seed in range(args.seeds):
                run = run_worker(workload, seed, False, seed, {}, 170)
                if run["error"] is not None:
                    print(f"{workload} seed {seed}: {run['error']}",
                          file=sys.stderr)
                    return 1
                if golden["platform"] not in (None, run["platform"]):
                    print("platform changed while recording", file=sys.stderr)
                    return 1
                golden["platform"] = run["platform"]
                digests[str(seed)] = run["digest"]
                print(f"{workload} seed {seed}: {run['digest'][:16]}")
            golden["workloads"][workload] = {"config": run["config"],
                                             "digests": digests}
    finally:
        shutil.rmtree(RUNS_DIR, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
