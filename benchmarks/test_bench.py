"""Self-tests of the benchmark, each on a tiny run.

    python3 -m pytest benchmarks/test_bench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
from common import (DETAIL, EXACT_COUNTS, ROOT, SRC, digest_run,  # noqa: E402
                    load_spec)
from compare import verdict  # noqa: E402
import run as bench_run  # noqa: E402

TINY = ["--set", "epochs=1", "--set", "max_train=256"]


def _bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def _worker(workload, seed, trace, tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace),
         "--run-dir", str(tmp_path / f"run-{seed}"), *TINY],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["error"] is None
    return out


@pytest.mark.parametrize("workload,trace", [("mlp-fp16", 0),
                                            ("conv-bf16", 1),
                                            ("lstm-bf16", 1)])
def test_every_metric_printed_with_unit(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                  "--trace", str(trace), *TINY)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= bench_run.MIN_RUNS
    spec = load_spec()
    specs = spec["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in specs}
    units = {m["name"]: m["unit"] for m in specs}
    for name, unit in units.items():
        printed = result["metrics"][name]
        assert printed["unit"] == unit
        assert isinstance(printed["value"], float)
    units.update((name, unit) for name, (unit, _) in DETAIL.items()
                 if not trace or name == "failed_frac")
    for name, unit in units.items():
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in lines), name


def test_gate_rejects_perturbed_csv(tmp_path):
    sys.path.insert(0, str(SRC))
    from bf16emu.harness import config_from_mapping, run_experiment
    cfg = config_from_mapping({"task": "mlp-circles", "precision": "bf16",
                               "epochs": "1", "max_train": "256",
                               "out": str(tmp_path / "run")})
    run_experiment(cfg)
    csv_path = tmp_path / "run" / "metrics.csv"
    good = digest_run(tmp_path / "run")

    lines = csv_path.read_text().splitlines(keepends=True)
    fields = lines[1].split(",")
    fields[-1] = str(int(fields[-1]) + 12345) + "\n"      # wall_ms only
    csv_path.write_text(lines[0] + ",".join(fields) + "".join(lines[2:]))
    assert digest_run(tmp_path / "run") == good

    fields[2] = fields[2][:-1] + str((int(fields[2][-1]) + 1) % 10)  # loss
    csv_path.write_text(lines[0] + ",".join(fields) + "".join(lines[2:]))
    bad = digest_run(tmp_path / "run")
    assert bad != good

    runs = [{"error": None, "digest": d, "platform": "p", "config": {}}
            for d in (good, bad, good)]
    golden = {"platform": "p",
              "workloads": {"w": {"config": {}, "digests": {"0": good}}}}
    ref, source = bench_run.gate(runs, golden, "w", 0)
    assert (ref, source) == (good, "golden")
    assert [r["error"] is None for r in runs] == [True, False, True]

    # No golden for this seed: the majority of the invocation decides.
    runs = [{"error": None, "digest": d, "platform": "p", "config": {}}
            for d in (good, good, bad)]
    assert bench_run.gate(runs, golden, "w", 7) == (good, "cross-run")
    assert [r["error"] is None for r in runs] == [True, True, False]

    # A golden recorded on another platform does not apply.
    runs = [{"error": None, "digest": bad, "platform": "q", "config": {}}]
    assert bench_run.gate(runs, golden, "w", 0) == (bad, "cross-run")


@pytest.mark.parametrize("workload", ["conv-bf16", "lstm-bf16", "mlp-fp16"])
def test_traced_self_times_add_up(workload, tmp_path):
    out = _worker(workload, 0, 1, tmp_path)
    step_ms = sum(out["step_ms"]) / len(out["step_ms"])
    selfs = out["self_ms_per_step"]
    assert sum(selfs.values()) == pytest.approx(step_ms, rel=1e-9)
    layers = out["layers"]
    # Leaf spans: inclusive time equals self time.
    for name in ("kernels.gemm", "numerics.quantize", "kernels.im2col",
                 "kernels.pool", "optim.step"):
        assert layers[f"{name}.ms_per_step"] == pytest.approx(
            selfs.get(name, 0.0), rel=1e-9, abs=1e-12)
    assert layers["netgraph.self_ms_per_step"] == pytest.approx(
        sum(v for k, v in selfs.items() if k.startswith("netgraph.")))
    roles = sum(layers[f"numerics.quantize.{r}_ms_per_step"]
                for r in ("weight", "act", "err"))
    assert roles == pytest.approx(layers["numerics.quantize.ms_per_step"])
    parts = (layers["netgraph.forward.ms_per_step"]
             + layers["netgraph.backward.ms_per_step"]
             + layers["netgraph.refresh_shadows.ms_per_step"]
             + layers["optim.step.ms_per_step"])
    assert parts <= step_ms


def test_counts_repeat_exactly(tmp_path):
    a = _worker("lstm-bf16", 1, 1, tmp_path)
    b = _worker("lstm-bf16", 2, 1, tmp_path)
    for name in EXACT_COUNTS:
        assert a["layers"][name] == b["layers"][name] > 0
    a["run_s"] = b["run_s"] = 1.0
    b["layers"]["kernels.gemm.calls_per_step"] += 1
    _, problems = bench_run.per_layer([a, b])
    assert problems and "kernels.gemm.calls_per_step" in problems[0]


def test_compare_verdicts():
    base = [10.0, 10.1, 9.9, 10.05, 9.95]
    assert verdict(base, [v * 1.3 for v in base], "lower", 0.1)[0] == "worse"
    assert verdict(base, [v * 0.7 for v in base], "lower", 0.1)[0] == "better"
    assert verdict(base, [v * 1.01 for v in base], "lower", 0.1)[0] \
        == "unchanged"
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0]
    assert verdict(base, noisy, "lower", 0.1)[0] == "unresolved"
    assert verdict(base, [v * 1.3 for v in base], "higher", 0.1)[0] \
        == "better"
    assert verdict([0.0] * 3, [0.0] * 3, "lower", None)[0] == "unchanged"
    assert verdict(base, noisy, "lower", None)[0] == "unresolved"
    assert verdict(base, [v * 1.3 for v in base], "lower", None)[0] == "worse"


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "mlp-fp16", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path,
                  script=tmp_path / "benchmarks" / "run.py")
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
