"""Deterministic synthetic tasks for the precision-sweep experiments.

Four desk-scale tasks stand in for the large public workloads:
concentric circles (binary MLP classification), 8x8 digit-like images
(small CNN), sine-wave continuation (LSTM regression) and a synthetic
click-through task with a known logistic ground truth.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import RngStream

__all__ = ["Dataset", "gen_dataset", "TASKS"]

TASKS = ("mlp-circles", "conv-digits", "lstm-sine", "logistic-ctr")


@dataclass
class Dataset:
    train_x: np.ndarray
    train_y: np.ndarray
    eval_x: np.ndarray
    eval_y: np.ndarray
    metric: str  # "accuracy" | "mse" | "logloss"
    # Only for logistic-ctr: the log loss of the generating model itself.
    bayes_logloss: float | None = None


def gen_dataset(task: str, seed: int) -> Dataset:
    if task == "mlp-circles":
        return _circles(seed)
    if task == "conv-digits":
        return _digits(seed)
    if task == "lstm-sine":
        return _sine(seed)
    if task == "logistic-ctr":
        return _ctr(seed)
    raise ValueError(f"unknown task {task!r}")


def _circles_split(gen, n):
    # Exactly balanced classes: inner ring = 0, outer ring = 1.
    half = n // 2
    y = np.concatenate([np.zeros(half, np.int64), np.ones(n - half, np.int64)])
    radius = np.where(y == 0, 0.5, 1.0)
    radius = radius + gen.normal(0.0, 0.08, size=n)
    theta = gen.uniform(0.0, 2.0 * np.pi, size=n)
    x = np.stack([radius * np.cos(theta), radius * np.sin(theta)],
                 axis=1).astype(np.float32)
    perm = gen.permutation(n)
    return x[perm], y[perm]


def _circles(seed: int) -> Dataset:
    rng = RngStream(seed, 101)
    tx, ty = _circles_split(rng.child(0).generator(), 4096)
    ex, ey = _circles_split(rng.child(1).generator(), 1024)
    return Dataset(tx, ty, ex, ey, "accuracy")


_DIGIT_TEMPLATES = None


def _digit_templates():
    global _DIGIT_TEMPLATES
    if _DIGIT_TEMPLATES is None:
        t = np.zeros((4, 8, 8), np.float32)
        t[0, 1:7:2, 1:7] = 1.0                # horizontal stripes
        t[1, 1:7, 1:7:2] = 1.0                # vertical stripes
        t[2, 3:5, 1:7] = 1.0                  # cross
        t[2, 1:7, 3:5] = 1.0
        t[3, 1:7, 1:7] = 1.0                  # ring
        t[3, 3:5, 3:5] = 0.0
        _DIGIT_TEMPLATES = t
    return _DIGIT_TEMPLATES


def _digits_split(gen, n):
    templates = _digit_templates()
    y = gen.integers(0, 4, size=n)
    shifts = gen.integers(-1, 2, size=(n, 2))
    noise = gen.normal(0.0, 0.25, size=(n, 8, 8))
    # Each template rolled by its (row, column) shift, as np.roll would:
    # pixel (i, j) takes the template's ((i - dr) % 8, (j - dc) % 8).
    rows = (np.arange(8) - shifts[:, :1]) % 8
    cols = (np.arange(8) - shifts[:, 1:]) % 8
    noise += templates[y[:, None, None], rows[:, :, None], cols[:, None, :]]
    return noise.astype(np.float32)[:, None], y.astype(np.int64)


def _digits(seed: int) -> Dataset:
    rng = RngStream(seed, 202)
    tx, ty = _digits_split(rng.child(0).generator(), 4096)
    ex, ey = _digits_split(rng.child(1).generator(), 1024)
    return Dataset(tx, ty, ex, ey, "accuracy")


def _sine_split(gen, n, length=32):
    omega = gen.uniform(0.1, 0.5, size=(n, 1))
    phase = gen.uniform(0.0, 2.0 * np.pi, size=(n, 1))
    steps = np.arange(length + 1, dtype=np.float64)[None, :]
    wave = np.sin(omega * steps + phase).astype(np.float32)
    x = wave[:, :length, None]
    y = wave[:, length:length + 1]
    return x.astype(np.float32), y.astype(np.float32)


def _sine(seed: int) -> Dataset:
    rng = RngStream(seed, 303)
    tx, ty = _sine_split(rng.child(0).generator(), 2048)
    ex, ey = _sine_split(rng.child(1).generator(), 512)
    return Dataset(tx, ty, ex, ey, "mse")


def _ctr(seed: int, features: int = 64) -> Dataset:
    rng = RngStream(seed, 404)
    gen = rng.child(0).generator()
    w_true = gen.normal(0.0, 0.4, size=features)
    b_true = -0.6
    feat_p = gen.uniform(0.05, 0.5, size=features)

    def split(g, n):
        x = (g.random((n, features)) < feat_p).astype(np.float32)
        logits = x @ w_true + b_true
        p = 1.0 / (1.0 + np.exp(-logits))
        y = (g.random(n) < p).astype(np.float32)
        return x, y, p

    tx, ty, _ = split(rng.child(1).generator(), 8192)
    ex, ey, ep = split(rng.child(2).generator(), 2048)
    eps = 1e-12
    bayes = float(-(ep * np.log(ep + eps)
                    + (1.0 - ep) * np.log(1.0 - ep + eps)).mean())
    return Dataset(tx, ty, ex, ey, "logloss", bayes_logloss=bayes)
