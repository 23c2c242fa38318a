"""Training-step benchmark for bf16emu.

    python3 benchmarks/run.py --workload conv-bf16 --seed 0 --seconds 40 \
        --trace 0 [--out results.jsonl]

Runs `harness.run_experiment` (the path `bf16emu train` takes) in a closed
loop with one client: one worker process per run, each started when the
previous one ends, until ``--seconds`` have passed (at least MIN_RUNS
runs).  BLAS is pinned to one thread.  Every run's output (metrics.csv
without wall_ms, plus the model dumps) is digested and checked against
the golden digest for this seed and platform, or, without one, against the
other runs of this invocation.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are printed,
together with the unbounded figures of ``common.DETAIL``; with
``--trace 1`` runs alternate traced and untraced, and the per-layer
metrics come from the traced ones.  The last line of standard output is
one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import collections
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import (  # noqa: E402
    BENCH_DIR,
    DETAIL,
    EXACT_COUNTS,
    GOLDEN,
    ROOT,
    SPEC,
    SRC,
    WORKLOADS,
    load_spec,
    percentile,
    tail_percentile,
)

MIN_RUNS = 3
# An invocation must end within 180 s; a worker gets what is left of that.
DEADLINE_S = 170
RUNS_DIR = ROOT / ".bench_runs"
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def check_layout() -> str | None:
    for path in (SRC / "bf16emu" / "harness.py", SPEC, GOLDEN,
                 *(ROOT / cfg for cfg, _ in WORKLOADS.values())):
        if not path.is_file():
            return f"missing {path.relative_to(ROOT)}"
    return None


def run_worker(workload, seed, trace, index, sets, timeout) -> dict:
    run_dir = RUNS_DIR / f"{workload}-{os.getpid()}-{index}"
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"),
           "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace)), "--run-dir", str(run_dir)]
    for key, value in sets.items():
        cmd += ["--set", f"{key}={value}"]
    env = dict(os.environ, **THREAD_ENV)
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        shutil.rmtree(run_dir, ignore_errors=True)
        return {"trace": int(trace), "error": f"worker exceeded {timeout:.0f} s"}
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"trace": int(trace),
                "error": f"worker exit {proc.returncode}: {tail[0]}"}
    out = json.loads(lines[-1])
    out["run_s"] = wall
    if out["error"] is None and out["steps"] != out["iterations"]:
        out["error"] = (f"step hooks saw {out['steps']} steps, the run "
                        f"made {out['iterations']}")
    return out


def golden_digest(golden: dict, workload: str, seed: int, run: dict):
    entry = golden.get("workloads", {}).get(workload)
    if (entry is None or golden.get("platform") != run["platform"]
            or entry["config"] != run["config"]):
        return None
    return entry["digests"].get(str(seed))


def gate(runs: list[dict], golden: dict, workload: str, seed: int):
    """Mark runs whose output digest is wrong; returns (reference, source)."""
    ok = [r for r in runs if r["error"] is None]
    if not ok:
        return None, "none"
    reference = golden_digest(golden, workload, seed, ok[0])
    source = "golden"
    if reference is None:
        source = "cross-run"
        counts = collections.Counter(r["digest"] for r in ok).most_common()
        if len(counts) > 1 and counts[0][1] == counts[1][1]:
            reference = None  # no majority: every run is suspect
        else:
            reference = counts[0][0]
    for r in ok:
        if r["digest"] != reference:
            r["error"] = f"output digest {r['digest'][:16]} != {source} " \
                         f"{(reference or 'majority')[:16]}"
    return reference, source


def end_to_end(runs: list[dict]) -> tuple[dict, dict]:
    steps = [ms for r in runs for ms in r["step_ms"]]
    evals = [ms for r in runs for ms in r["eval_ms"]]
    metrics = {
        "step_ms_p50": percentile(steps, 50),
        "step_ms_p90": percentile(steps, 90),
        "samples_per_s": statistics.median(r["samples_per_s"] for r in runs),
        "eval_ms_p50": percentile(evals, 50),
        "run_s": statistics.median(r["run_s"] for r in runs),
        "setup_s": statistics.median(r["setup_s"] for r in runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
    }
    samples = {"step_ms": steps, "eval_ms": evals,
               "run_s": [r["run_s"] for r in runs],
               "setup_s": [r["setup_s"] for r in runs]}
    return metrics, samples


def per_layer(runs: list[dict]) -> tuple[dict, list]:
    """Per-layer medians over the traced runs of an alternating sequence."""
    problems = []
    traced = [r for r in runs if r["trace"] and r["error"] is None]
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in traced[0]["layers"]}
    for name in EXACT_COUNTS:
        values = {r["layers"][name] for r in traced}
        if len(values) > 1:
            problems.append(f"{name} differs between runs: {sorted(values)}")
    # Adjacent traced/untraced pairs share the host's speed at that moment,
    # so the median of their ratios is steadier than a ratio of medians.
    ratios = [t["run_s"] / u["run_s"] for t, u in zip(runs[::2], runs[1::2])
              if t["error"] is None and u["error"] is None]
    if ratios:
        metrics["trace.overhead_frac"] = statistics.median(ratios) - 1.0
    return metrics, problems


def describe(samples: dict) -> list[str]:
    lines = []
    for key, values in samples.items():
        if not values:
            continue
        tail = tail_percentile(len(values))
        tail_txt = (f"p{tail:g} {percentile(values, tail):.4g}"
                    if tail is not None else "no tail percentile")
        lines.append(f"  {key}: n={len(values)} "
                     f"p50 {percentile(values, 50):.4g} {tail_txt}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="bf16emu training-step benchmark",
        epilog="Compare two --out files with benchmarks/compare.py.")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append this result as a JSON line")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a config key; such runs have no golden "
                         "digest (used by the self-tests)")
    args = ap.parse_args(argv)

    problem = check_layout()
    if problem:
        print(f"benchmark: cannot run: {problem}", file=sys.stderr)
        return 2
    spec = load_spec()
    golden = json.loads(GOLDEN.read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    sets = dict(item.split("=", 1) for item in args.set)
    trace = bool(args.trace)

    runs: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    try:
        while len(runs) < MIN_RUNS or (
                time.perf_counter() - start + longest <= seconds):
            # Traced mode alternates traced and untraced runs so that the
            # tracing overhead is measured in the same invocation.
            traced_run = trace and len(runs) % 2 == 0
            t0 = time.perf_counter()
            timeout = max(5.0, DEADLINE_S - (t0 - start))
            runs.append(run_worker(args.workload, args.seed, traced_run,
                                   len(runs), sets, timeout))
            longest = max(longest, time.perf_counter() - t0)
    finally:
        try:
            RUNS_DIR.rmdir()   # each run removes its own directory
        except OSError:
            pass

    reference, source = gate(runs, golden, args.workload, args.seed)
    good = [r for r in runs if r["error"] is None]
    failed = len(runs) - len(good)
    for i, r in enumerate(runs):
        if r["error"] is not None:
            print(f"run {i} failed: {r['error']}", file=sys.stderr)
    plain = [r for r in good if not r["trace"]]
    traced = [r for r in good if r["trace"]]
    if not (traced if trace else plain):
        print("benchmark: no successful run", file=sys.stderr)
        return 1

    failed_frac = failed / len(runs)
    problems = []
    detail = {"failed_frac": failed_frac}
    if trace:
        metrics, problems = per_layer(runs)
        samples = {"step_ms (traced)": [ms for r in traced
                                        for ms in r["step_ms"]]}
    else:
        metrics, samples = end_to_end(plain)
        detail.update((name, metrics.pop(name)) for name in DETAIL
                      if name in metrics)
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    specs = spec["per_layer" if trace else "end_to_end"]
    mismatch = {m["name"] for m in specs} ^ set(metrics)
    if mismatch:
        print(f"benchmark: metric set differs from BENCHMARK.json: "
              f"{sorted(mismatch)}", file=sys.stderr)
        return 1
    env = {"cpu_count": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)),
           "python": platform.python_version(),
           "numpy": good[0]["numpy"],
           "platform": good[0]["platform"], "seed": args.seed}
    if "trace.overhead_frac" in metrics:
        env["trace_overhead_frac"] = metrics["trace.overhead_frac"]

    print(f"workload {args.workload} seed {args.seed} trace {int(trace)}: "
          f"{len(runs)} runs in {time.perf_counter() - start:.1f} s, "
          f"{failed} failed")
    print(f"gate: {source} digest {(reference or '-')[:16]}")
    print("env: " + json.dumps(env, sort_keys=True))
    print("samples:")
    for line in describe(samples):
        print(line)
    if trace:
        print("self ms/step by span (median over traced runs):")
        names = traced[0]["self_ms_per_step"]
        for name in sorted(names):
            value = statistics.median(r["self_ms_per_step"].get(name, 0.0)
                                      for r in traced)
            print(f"  {name:<28} {value:10.4f}")
    print(f"failed runs: {failed}/{len(runs)}")
    print("not bounded:")
    for name, value in detail.items():
        print(f"  {name:<40} {value:14.6g} {DETAIL[name][0]}")
    print("bounded in BENCHMARK.json:" if not trace else "per layer:")
    for m in specs:
        print(f"  {m['name']:<40} {metrics[m['name']]:14.6g} {m['unit']}")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in specs},
    }
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=int(trace), seconds=seconds, env=env,
                      digest=reference, gate=source,
                      detail={name: {"value": value, "unit": DETAIL[name][0]}
                              for name, value in detail.items()})
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
