"""Experiment runner: precision-sweep training on the synthetic tasks.

A run is fully described by an `ExperimentConfig` (flat key=value file,
CLI overrides win over the file, the file wins over defaults).  Runs are
deterministic given their config; metrics go to a fixed-schema CSV and
the final model is dumped in the tensor format with a JSON manifest.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import netgraph as ng
from .datasets import Dataset, TASKS, gen_dataset
from .kernels import (
    PoolKind,
    _sigmoid,
    binary_log_loss,
    softmax_cross_entropy,
)
from .netgraph import Network, QuantStats, build_network
from .optim import Adam, LossScaler, Sgd
from .tensor import (
    QuantPolicy,
    RngStream,
    Tensor,
    dump_tensor,
)
from .numerics import Precision, RoundingMode

__all__ = [
    "ConfigError",
    "SchemaError",
    "DivergenceError",
    "ExperimentConfig",
    "MetricsRow",
    "RunResult",
    "RunSummary",
    "CSV_HEADER",
    "parse_config_file",
    "config_from_mapping",
    "run_experiment",
    "compare_runs",
    "configs_differ_only_in",
]

CSV_HEADER = ["epoch", "iter", "loss", "eval_metric",
              "grad_underflow_frac", "wall_ms"]

# The legal `precision` and `rounding` strings, in declaration order.
PRECISIONS = [p.value for p in Precision]
ROUNDINGS = [m.value for m in RoundingMode]


class ConfigError(ValueError):
    pass


class SchemaError(ValueError):
    pass


class DivergenceError(RuntimeError):
    def __init__(self, iteration: int):
        super().__init__(f"loss diverged (NaN) at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class ExperimentConfig:
    task: str = "mlp-circles"
    precision: str = "fp32"              # fp32 | bf16 | fp16
    rounding: str = "rne"                # rne | trunc
    loss_scale: float = 1.0
    seed: int = 0
    epochs: int = 10
    batch_size: int = 128
    optimizer: str = "sgd"               # sgd | adam
    lr: float = 0.1
    momentum: float = 0.9
    nesterov: bool = True
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    loss_prescale: float = 1.0
    max_train: int = 0                   # 0 = use the whole training split
    # sequential only; kept for the golden digest key
    accum_order: str = "sequential"
    out: str = "runs/run"
    # always empty; kept for the golden digest key
    policy_overrides: dict = field(default_factory=dict)

    def validate(self) -> "ExperimentConfig":
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.task not in TASKS:
            raise ConfigError(f"unknown task {self.task!r}")
        if self.precision not in PRECISIONS:
            raise ConfigError(f"unknown precision {self.precision!r}")
        if self.rounding not in ROUNDINGS:
            raise ConfigError(f"unknown rounding {self.rounding!r}")
        if self.optimizer not in ("sgd", "adam"):
            raise ConfigError(f"unknown optimizer {self.optimizer!r}")
        if self.accum_order != "sequential":
            raise ConfigError(
                f"accum_order {self.accum_order!r} is not supported: the "
                "GEMM adds in one order, 'sequential' ('paired' was removed)")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.max_train < 0:
            raise ConfigError("max_train must be >= 0 (0 = the whole split)")
        try:
            self.make_optimizer()
        except ValueError as exc:
            raise ConfigError(f"{self.optimizer}: {exc}") from None
        if self.loss_scale <= 0 or not math.log2(self.loss_scale).is_integer():
            raise ConfigError("loss_scale must be a positive power of two")
        # The hyper-parameter-free claim: only the FP16 arm may scale.
        if self.precision in ("fp32", "bf16") and self.loss_scale != 1.0:
            raise ConfigError(
                f"{self.precision} runs must keep loss_scale = 1")
        if self.policy_overrides:
            raise ConfigError(
                "policy_overrides is not supported: which tensors are "
                "quantized is fixed by the dataflow")
        return self

    def make_optimizer(self) -> Sgd | Adam:
        if self.optimizer == "sgd":
            return Sgd(self.lr, self.momentum, self.nesterov,
                       self.weight_decay)
        return Adam(self.lr, self.beta1, self.beta2, self.adam_eps)

    def policy(self) -> QuantPolicy:
        return QuantPolicy(Precision(self.precision),
                           RoundingMode(self.rounding))


def _parse_bool(raw) -> bool:
    if not isinstance(raw, str):
        return bool(raw)
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


# Config values are parsed by their field's declared type; a field of
# any other type (policy_overrides) cannot be set from a mapping.
_PARSERS = {"bool": _parse_bool, "int": int, "float": float, "str": str}
_FIELD_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)
                  if f.type in _PARSERS}


def parse_config_file(path) -> dict:
    """Flat `key = value` lines; '#' starts a comment."""
    mapping: dict[str, str] = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, value = stripped.split("=", 1)
        mapping[key.strip()] = value.strip()
    return mapping


def config_from_mapping(mapping: dict,
                        base: ExperimentConfig | None = None) -> ExperimentConfig:
    cfg = base or ExperimentConfig()
    updates: dict = {}
    for key, raw in mapping.items():
        parse = _FIELD_PARSERS.get(key)
        if parse is None:
            raise ConfigError(f"unknown config key {key!r}")
        try:
            updates[key] = parse(raw)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad value for {key}: {exc}") from None
    return replace(cfg, **updates).validate()


def configs_differ_only_in(configs, allowed: set[str]) -> bool:
    """True when all configs agree on every field outside ``allowed``.

    ``out`` is always allowed to differ (arms write to disjoint folders)."""
    allowed = set(allowed) | {"out"}
    ref = configs[0]
    for cfg in configs[1:]:
        for f in fields(ExperimentConfig):
            if f.name in allowed:
                continue
            if getattr(cfg, f.name) != getattr(ref, f.name):
                return False
    return True


# --------------------------------------------------------------------------
# networks and losses per task
# --------------------------------------------------------------------------


def _network_specs(task: str):
    relu = ng.ReLU()
    if task == "mlp-circles":
        return [ng.Dense(2, 64), relu, ng.Dense(64, 64), relu,
                ng.Dense(64, 2)]
    if task == "conv-digits":
        return [
            ng.Conv2d(1, 8, 3, pad=1), relu,
            ng.Pool(PoolKind.MAX, 2),
            ng.Conv2d(8, 16, 3, pad=1), relu,
            ng.Pool(PoolKind.MAX, 2),
            ng.Flatten(),
            ng.Dense(16 * 2 * 2, 4),
        ]
    if task == "lstm-sine":
        return [ng.Lstm(1, 32), ng.Dense(32, 1)]
    if task == "logistic-ctr":
        return [ng.Dense(64, 1)]
    raise ConfigError(f"unknown task {task!r}")


def _loss_and_grad(task_metric: str, output: np.ndarray, labels):
    """Returns (train loss, dlogits)."""
    z = output.reshape(-1)
    n = z.shape[0]
    if task_metric == "accuracy":
        loss, d = softmax_cross_entropy(output, labels)
    elif task_metric == "mse":
        y = np.asarray(labels, np.float32).reshape(-1)
        diff = (z - y).astype(np.float32)
        loss = float((diff * diff).mean(dtype=np.float32))
        d = (np.float32(2.0 / n) * diff).astype(np.float32)
    elif task_metric == "logloss":
        y = np.asarray(labels, np.float32).reshape(-1)
        p = _sigmoid(z)
        loss = binary_log_loss(p, y)
        d = ((p - y) / np.float32(n)).astype(np.float32)
    else:
        raise ConfigError(f"unknown metric {task_metric!r}")
    return loss, d.reshape(output.shape)


def _eval_metric(net: Network, ds: Dataset, batch: int = 512) -> float:
    """The dataset's evaluation metric on the eval split, in eval mode."""
    outs = []
    n = ds.eval_x.shape[0]
    for lo in range(0, n, batch):
        y, _ = net.forward(ds.eval_x[lo:lo + batch], train=False)
        outs.append(y)
    out = np.concatenate(outs, axis=0)
    if ds.metric == "accuracy":
        pred = out.argmax(axis=1)
        return float((pred == ds.eval_y).mean())
    return _loss_and_grad(ds.metric, out, ds.eval_y)[0]


def _train_loss_full(net: Network, ds: Dataset, tx, ty,
                     batch: int = 512) -> float:
    total = 0.0
    count = 0
    for lo in range(0, tx.shape[0], batch):
        x = tx[lo:lo + batch]
        y, _ = net.forward(x, train=False)
        loss, _ = _loss_and_grad(ds.metric, y, ty[lo:lo + batch])
        total += loss * x.shape[0]
        count += x.shape[0]
    return total / count


# --------------------------------------------------------------------------
# run
# --------------------------------------------------------------------------


@dataclass
class MetricsRow:
    epoch: int
    iter: int
    loss: float
    eval_metric: float
    grad_underflow_frac: float
    wall_ms: int

    def as_csv(self) -> list[str]:
        return [str(self.epoch), str(self.iter), repr(float(self.loss)),
                repr(float(self.eval_metric)),
                repr(float(self.grad_underflow_frac)), str(self.wall_ms)]


@dataclass
class RunResult:
    config: ExperimentConfig
    rows: list[MetricsRow]
    csv_path: Path
    summary_path: Path
    diverged: bool
    diverged_iteration: int | None = None

    @property
    def final(self) -> MetricsRow:
        return self.rows[-1]


def _write_rows(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(row.as_csv())


def _dump_model(net: Network, out_dir: Path) -> None:
    model_dir = out_dir / "model"
    model_dir.mkdir(parents=True, exist_ok=True)
    manifest = []
    for ps in net.param_sets():
        fname = f"{ps.name}.tensor"
        dump_tensor(Tensor(ps.master), model_dir / fname)
        entry = {"name": ps.name, "shape": list(ps.master.shape),
                 "file": fname}
        if ps.bias is not None:
            bias_file = f"{ps.name}.bias.tensor"
            dump_tensor(Tensor(ps.bias), model_dir / bias_file)
            entry["bias_file"] = bias_file
            entry["bias_shape"] = list(ps.bias.shape)
        manifest.append(entry)
    with open(model_dir / "manifest.json", "w") as fh:
        json.dump({"layers": manifest}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def run_experiment(cfg: ExperimentConfig) -> RunResult:
    """Train to completion; one metrics row at iteration 0 and per epoch.

    Raises DivergenceError on NaN loss after recording the partial CSV,
    and ConfigError, before writing anything, when the training split is
    smaller than one batch.
    """
    cfg.validate()
    t0 = time.monotonic()

    ds = gen_dataset(cfg.task, cfg.seed)
    tx, ty = ds.train_x, ds.train_y
    if cfg.max_train:
        tx, ty = tx[:cfg.max_train], ty[:cfg.max_train]
    if tx.shape[0] < cfg.batch_size:
        raise ConfigError(
            f"the training split has {tx.shape[0]} samples, fewer than "
            f"batch_size = {cfg.batch_size}, so no step would run")
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    rng = RngStream(cfg.seed, 1)
    net = build_network(_network_specs(cfg.task), cfg.policy(), rng.child(0))
    opt = cfg.make_optimizer()
    scaler = LossScaler(cfg.loss_scale)
    prescale = np.float32(cfg.loss_prescale)

    rows: list[MetricsRow] = []

    def ms() -> int:
        return int((time.monotonic() - t0) * 1000)

    metric0 = _eval_metric(net, ds)
    rows.append(MetricsRow(0, 0, _train_loss_full(net, ds, tx, ty),
                           metric0, 0.0, ms()))

    csv_path = out_dir / "metrics.csv"
    summary_path = out_dir / "summary.json"
    shuffle_rng = rng.child(1)
    step_rng = rng.child(2)
    n = tx.shape[0]
    global_iter = 0
    diverged_at = None

    for epoch in range(1, cfg.epochs + 1):
        perm = shuffle_rng.child(epoch).generator().permutation(n)
        epoch_loss = 0.0
        epoch_batches = 0
        stats = QuantStats()
        for lo in range(0, n - cfg.batch_size + 1, cfg.batch_size):
            idx = perm[lo:lo + cfg.batch_size]
            x = tx[idx]
            labels = ty[idx]
            net.zero_grads()
            out, tape = net.forward(x, train=True,
                                    step_rng=step_rng.child(global_iter))
            loss, dlogits = _loss_and_grad(ds.metric, out, labels)
            global_iter += 1
            epoch_loss += loss
            epoch_batches += 1
            if not math.isfinite(loss):
                diverged_at = global_iter
                break
            d = dlogits
            if cfg.loss_prescale != 1.0:
                d = d * prescale
            d = scaler.scale_loss_grad(d)
            net.backward(tape, d, stats=stats)
            scaler.unscale_grads(net.param_sets())
            opt.step(net.param_sets())
            net.refresh_shadows()
        metric = _eval_metric(net, ds)
        rows.append(MetricsRow(epoch, global_iter,
                               epoch_loss / max(epoch_batches, 1), metric,
                               stats.underflow_fraction, ms()))
        if diverged_at is not None:
            break

    _write_rows(csv_path, rows)
    _dump_model(net, out_dir)
    summary = {
        "task": cfg.task,
        "precision": cfg.precision,
        "rounding": cfg.rounding,
        "loss_scale": cfg.loss_scale,
        "seed": cfg.seed,
        "final_loss": rows[-1].loss,
        "final_eval_metric": rows[-1].eval_metric,
        "iterations": global_iter,
        "diverged": diverged_at is not None,
        "diverged_iteration": diverged_at,
    }
    if ds.bayes_logloss is not None:
        summary["bayes_logloss"] = ds.bayes_logloss
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")

    result = RunResult(cfg, rows, csv_path, summary_path,
                       diverged_at is not None, diverged_at)
    if diverged_at is not None:
        raise DivergenceError(diverged_at)
    return result


# --------------------------------------------------------------------------
# comparison
# --------------------------------------------------------------------------


@dataclass
class ArmSummary:
    name: str
    final_loss: float
    final_metric: float
    rows: list[dict]


@dataclass
class RunSummary:
    arms: list[ArmSummary]
    baseline: str
    max_metric_gap: dict[str, float]
    final_loss_rel_gap: dict[str, float]
    reference: float | None = None


def _read_metrics_csv(path) -> list[dict]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: empty metrics file") from None
        if header != CSV_HEADER:
            raise SchemaError(f"{path}: header {header} != {CSV_HEADER}")
        rows = []
        for rec in reader:
            if len(rec) != len(CSV_HEADER):
                raise SchemaError(f"{path}: ragged row {rec}")
            rows.append({
                "epoch": int(rec[0]), "iter": int(rec[1]),
                "loss": float(rec[2]), "eval_metric": float(rec[3]),
                "grad_underflow_frac": float(rec[4]),
                "wall_ms": int(rec[5]),
            })
    if not rows:
        raise SchemaError(f"{path}: no metric rows")
    return rows


def compare_runs(csv_paths, out_dir=None,
                 reference: float | None = None) -> RunSummary:
    """Side-by-side summary of >=2 runs; the first CSV is the baseline."""
    if len(csv_paths) < 2:
        raise SchemaError("compare needs at least two metrics CSVs")
    arms = []
    for path in csv_paths:
        rows = _read_metrics_csv(path)
        name = Path(path).parent.name or Path(path).stem
        arms.append(ArmSummary(name, rows[-1]["loss"],
                               rows[-1]["eval_metric"], rows))
    base = arms[0]
    max_gap = {}
    loss_gap = {}
    for arm in arms[1:]:
        common = min(len(base.rows), len(arm.rows))
        gap = max(abs(base.rows[i]["eval_metric"] - arm.rows[i]["eval_metric"])
                  for i in range(common))
        max_gap[arm.name] = gap
        denom = abs(base.final_loss) or 1.0
        loss_gap[arm.name] = abs(arm.final_loss - base.final_loss) / denom
    summary = RunSummary(arms, base.name, max_gap, loss_gap, reference)

    lines = ["arm                        final_loss     final_eval_metric"]
    for arm in sorted(arms, key=lambda a: a.final_metric):
        lines.append(f"{arm.name:<26} {arm.final_loss:<14.6g} "
                     f"{arm.final_metric:.6g}")
    if reference is not None:
        lines.append(f"reference value: {reference:.6g}")
    for arm in arms[1:]:
        lines.append(f"{arm.name}: max eval-metric gap vs {base.name} = "
                     f"{max_gap[arm.name]:.6g}, final loss rel gap = "
                     f"{loss_gap[arm.name]:.6g}")
    report = "\n".join(lines) + "\n"

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.txt").write_text(report)
        machine = {
            "baseline": base.name,
            "reference": reference,
            "arms": [{"name": a.name, "final_loss": a.final_loss,
                      "final_eval_metric": a.final_metric} for a in arms],
            "max_eval_metric_gap": max_gap,
            "final_loss_rel_gap": loss_gap,
        }
        with open(out_dir / "summary.json", "w") as fh:
            json.dump(machine, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary
