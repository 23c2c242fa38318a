"""Compare two benchmark result sets written by ``run.py --out``.

    python3 benchmarks/compare.py base.jsonl new.jsonl

Prints one row per workload and metric: each side's median and quartiles,
the relative change of the median, and a verdict against the bounds of
BENCHMARK.json:

* worse      -- the median got worse by more than the metric's bound;
* unresolved -- the run-to-run spread (quartile distance over median) of
                either side is wider than the bound, and not every new run
                beats every base run;
* better     -- the median improved by more than the base's own spread and
                the quartile ranges do not overlap (or every new run beats
                every base run);
* unchanged  -- otherwise.

Per-layer metrics and the unbounded end-to-end figures (common.DETAIL)
have no bound; for them only better, worse (quartile ranges apart) and
unresolved are given.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import DETAIL, load_spec  # noqa: E402


def load(path) -> dict:
    """{(workload, metric): [values]} from a JSON-lines result file."""
    out = defaultdict(list)
    with open(path) as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                for name, m in {**rec["metrics"], **rec["detail"]}.items():
                    out[rec["workload"], name].append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(base, new, better: str, bound: float | None) -> tuple[str, float]:
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    # Positive `worse_by` means the new median is worse.
    worse_by = sign * (nm - bm) / abs(bm) if bm else 0.0
    base_spread = (b3 - b1) / abs(bm) if bm else 0.0
    new_spread = (n3 - n1) / abs(nm) if nm else 0.0
    if better == "lower":
        all_better = max(new) < min(base)
        apart_better, apart_worse = n3 < b1, n1 > b3
    else:
        all_better = min(new) > max(base)
        apart_better, apart_worse = n1 > b3, n3 < b1
    if min(base) == max(base) == min(new) == max(new):
        return "unchanged", worse_by
    if bound is None:
        if apart_better or all_better:
            return "better", worse_by
        return ("worse" if apart_worse else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if all_better:
        return "better", worse_by
    if max(base_spread, new_spread) > bound:
        return "unresolved", worse_by
    if -worse_by > base_spread and apart_better:
        return "better", worse_by
    return "unchanged", worse_by


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    spec = load_spec()
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    metrics.update((name, {"better": better})
                   for name, (_, better) in DETAIL.items())
    base, new = load(args.base), load(args.new)
    header = (f"{'workload':<10} {'metric':<38} {'base q1/med/q3':>30} "
              f"{'new q1/med/q3':>30} {'change':>8}  verdict")
    print(header)
    for key in sorted(set(base) & set(new)):
        workload, name = key
        m = metrics.get(name)
        if m is None:
            continue
        word, worse_by = verdict(base[key], new[key], m["better"],
                                 m.get("bound"))
        b = "/".join(f"{v:.4g}" for v in quartiles(base[key]))
        n = "/".join(f"{v:.4g}" for v in quartiles(new[key]))
        change = -worse_by if m["better"] == "higher" else worse_by
        print(f"{workload:<10} {name:<38} {b:>30} {n:>30} "
              f"{change:>+8.1%}  {word}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
