"""One benchmark run: one `run_experiment` call in its own process.

Usage (normally started by run.py, from the repository root):

    python3 benchmarks/worker.py --workload conv-bf16 --seed 0 --trace 0 \
        --run-dir .bench_runs/x [--set key=value ...]

Prints one JSON line with the run's timings, its output digest and, with
``--trace 1``, the per-layer metrics.  The run directory is removed after
its digest is taken.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from common import ROOT, SRC, WORKLOADS, digest_run  # noqa: E402


def platform_fingerprint() -> str:
    """NumPy version plus the SIMD targets its ufunc loops dispatch to.

    float32 exp/tanh results may differ between dispatch targets, so golden
    digests are only comparable on a matching fingerprint."""
    import numpy as np
    umath = np._core._multiarray_umath
    feats = umath.__cpu_features__
    targets = [t for t in umath.__cpu_baseline__ + umath.__cpu_dispatch__
               if feats.get(t)]
    return f"numpy-{np.__version__}:" + ",".join(targets)


def make_config(workload: str, seed: int, run_dir: str, sets: dict):
    from bf16emu.harness import config_from_mapping, parse_config_file
    cfg_file, pinned = WORKLOADS[workload]
    mapping = parse_config_file(ROOT / cfg_file)
    mapping.update(pinned)
    mapping.update(sets)
    mapping.update(seed=str(seed), out=run_dir)
    return config_from_mapping(mapping)


def run_once(workload: str, seed: int, trace: bool, run_dir: str,
             sets: dict) -> dict:
    import bf16emu
    if Path(bf16emu.__file__).resolve().parent != SRC / "bf16emu":
        raise RuntimeError(f"bf16emu imported from {bf16emu.__file__}, "
                           f"not from {SRC}")
    from bf16emu.harness import run_experiment
    from tracer import Tracer

    cfg = make_config(workload, seed, run_dir, sets)
    tracer = Tracer(detail=trace)
    tracer.install()
    error = None
    t_call = time.perf_counter()
    try:
        result = run_experiment(cfg)
    except Exception as exc:  # a failed run is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    t_end = time.perf_counter()
    tracer.uninstall()

    config = dataclasses.asdict(cfg)
    del config["out"], config["seed"]
    out = {"workload": workload, "seed": seed, "trace": int(trace),
           "error": error, "config": config,
           "platform": platform_fingerprint(),
           "numpy": sys.modules["numpy"].__version__,
           "peak_rss_mb":
               resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if error is not None:
        return out
    steps = len(tracer.step_s)
    samples = steps * cfg.batch_size
    post_setup = t_end - tracer.first_step
    out.update(
        digest=digest_run(run_dir),
        steps=steps,
        iterations=result.final.iter,
        setup_s=tracer.first_step - t_call,
        samples_per_s=samples / post_setup,
        step_ms=[s * 1e3 for s in tracer.step_s],
        eval_ms=[s * 1e3 for s in tracer.eval_s],
    )
    if trace:
        out["layers"] = tracer.layer_metrics(cfg.epochs)
        out["self_ms_per_step"] = tracer.self_ms_per_step()
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="override a config key (used by the self-tests)")
    args = ap.parse_args(argv)
    sets = dict(item.split("=", 1) for item in args.set)
    sys.path.insert(0, str(SRC))
    try:
        out = run_once(args.workload, args.seed, bool(args.trace),
                       args.run_dir, sets)
    finally:
        shutil.rmtree(args.run_dir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
