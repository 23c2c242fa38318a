"""Shared definitions for the training-step benchmark.

Standard library only: the parent process (`run.py`, `compare.py`) never
imports NumPy or bf16emu; only the per-run worker does.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN = BENCH_DIR / "golden.json"
SPEC = ROOT / "BENCHMARK.json"

# Each workload is one config file plus the keys the benchmark pins.  The
# epoch count only sets the run length; every other key keeps the shipped
# config's value.  Rounding is round-to-nearest-even everywhere.
WORKLOADS = {
    # GEMM-bound CNN: long-k weight-gradient GEMMs (k = 128*8*8), and the
    # only workload that runs im2col/col2im and pooling.
    "conv-bf16": ("configs/conv-digits.cfg",
                  {"precision": "bf16", "rounding": "rne", "epochs": "2"}),
    # ~195 small GEMMs per step in a Python time loop: per-call overhead
    # and netgraph glue; the only workload with Adam and with quantization
    # inside a kernel.
    "lstm-bf16": ("configs/lstm-sine.cfg",
                  {"precision": "bf16", "rounding": "rne", "epochs": "2"}),
    # The paper's fp16 arm with static loss scaling: numerics-bound (fp16
    # narrowing), exercises the subnormal/underflow path and LossScaler.
    "mlp-fp16": ("configs/mlp-circles.cfg",
                 {"precision": "fp16", "rounding": "rne", "loss_scale": "1024",
                  "epochs": "6"}),
}

# End-to-end figures that are printed and recorded but carry no bound in
# BENCHMARK.json: on a shared host their spread over seeds exceeds any
# bound the benchmark may set (see README.md, "Noise").  name -> (unit,
# better).
DETAIL = {"step_ms_p50": ("ms", "lower"), "samples_per_s": ("1/s", "higher"),
          "eval_ms_p50": ("ms", "lower"), "run_s": ("s", "lower"),
          "failed_frac": ("frac", "lower")}

# Metrics whose value is a count of work that must repeat exactly.
EXACT_COUNTS = ("kernels.gemm.calls_per_step",
                "numerics.quantize.elems_per_step")


def load_spec() -> dict:
    with open(SPEC) as fh:
        return json.load(fh)


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile of a non-empty sample."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest of the usual percentiles with at least ten samples beyond it."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def digest_run(run_dir) -> str:
    """SHA-256 of metrics.csv without its wall_ms column plus the model dumps.

    This is the byte-identical contract: two runs of one config must give
    the same digest, whatever their wall-clock timings.
    """
    run_dir = Path(run_dir)
    h = hashlib.sha256()
    with open(run_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("wall_ms")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        writer.writerow(row[:drop] + row[drop + 1:])
    parts = [("metrics.csv", buf.getvalue().encode())]
    parts += [(path.name, path.read_bytes())
              for path in sorted((run_dir / "model").iterdir())]
    for name, data in parts:
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()
