"""FP32 master-weight optimizers and static power-of-two loss scaling.

Optimizers read FP32 gradients and update FP32 masters only; no
quantization happens inside an update.  Their state is keyed by
``ParamSet.name``, not by object identity: ``id()`` values are reused
once an object is freed, and a copy of a parameter set with the same
name continues its state.  Loss scaling exists solely to
support the FP16 comparison arm: the scale is restricted to powers of
two so that scaling followed by unscaling is bit-lossless in FP32.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import Precision
from .tensor import Tensor

__all__ = [
    "SgdConfig",
    "AdamConfig",
    "Sgd",
    "Adam",
    "LossScaler",
]


@dataclass(frozen=True)
class SgdConfig:
    lr: float
    momentum: float = 0.0
    nesterov: bool = False
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")


@dataclass(frozen=True)
class AdamConfig:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if self.eps <= 0:
            raise ValueError("eps must be positive")


def _check_fp32(ps):
    assert ps.master.tag is Precision.FP32, "master must stay FP32"
    assert ps.grad.dtype == np.float32


class Sgd:
    """SGD with optional Nesterov momentum; decay folded into the grad.

    v <- mu*v - lr*g; nesterov: w <- w + mu*v - lr*g, else w <- w + v.
    """

    def __init__(self, cfg: SgdConfig):
        self.cfg = cfg
        self._velocity: dict[str, list[np.ndarray]] = {}

    def _state(self, ps):
        if ps.name not in self._velocity:
            vs = [np.zeros(ps.master.shape, np.float32)]
            if ps.bias is not None:
                vs.append(np.zeros(ps.bias.shape, np.float32))
            self._velocity[ps.name] = vs
        return self._velocity[ps.name]

    def step(self, param_sets):
        cfg = self.cfg
        lr = np.float32(cfg.lr)
        mu = np.float32(cfg.momentum)
        wd = np.float32(cfg.weight_decay)
        for ps in param_sets:
            _check_fp32(ps)
            vs = self._state(ps)
            targets = [(ps.master.data, ps.grad, vs[0])]
            if ps.bias is not None:
                targets.append((ps.bias.data, ps.bias_grad, vs[1]))
            for w, g, v in targets:
                if cfg.weight_decay:
                    g = g + wd * w
                v *= mu
                v -= lr * g
                if cfg.nesterov:
                    w += mu * v - lr * g
                else:
                    w += v


class Adam:
    """Kingma-Ba Adam with bias-corrected moments, all state FP32."""

    def __init__(self, cfg: AdamConfig):
        self.cfg = cfg
        self.t = 0
        self._moments: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}

    def _state(self, ps):
        if ps.name not in self._moments:
            ms = [(np.zeros(ps.master.shape, np.float32),
                   np.zeros(ps.master.shape, np.float32))]
            if ps.bias is not None:
                ms.append((np.zeros(ps.bias.shape, np.float32),
                           np.zeros(ps.bias.shape, np.float32)))
            self._moments[ps.name] = ms
        return self._moments[ps.name]

    def step(self, param_sets):
        cfg = self.cfg
        self.t += 1
        lr = np.float32(cfg.lr)
        b1 = np.float32(cfg.beta1)
        b2 = np.float32(cfg.beta2)
        eps = np.float32(cfg.eps)
        c1 = np.float32(1.0 - cfg.beta1 ** self.t)
        c2 = np.float32(1.0 - cfg.beta2 ** self.t)
        one = np.float32(1)
        for ps in param_sets:
            _check_fp32(ps)
            ms = self._state(ps)
            targets = [(ps.master.data, ps.grad, ms[0])]
            if ps.bias is not None:
                targets.append((ps.bias.data, ps.bias_grad, ms[1]))
            for w, g, (m, v) in targets:
                m *= b1
                m += (one - b1) * g
                v *= b2
                v += (one - b2) * (g * g)
                mhat = m / c1
                vhat = v / c2
                w -= lr * mhat / (np.sqrt(vhat) + eps)


class LossScaler:
    """Static loss scale, exactly a power of two."""

    def __init__(self, scale: float = 1.0):
        if scale <= 0 or not math.log2(scale).is_integer():
            raise ValueError(f"loss scale must be a positive power of two, "
                             f"got {scale}")
        self.scale = float(scale)

    def scale_loss_grad(self, loss_grad: Tensor) -> Tensor:
        if self.scale == 1.0:
            return loss_grad
        return Tensor(loss_grad.data * np.float32(self.scale))

    def unscale_grads(self, param_sets):
        if self.scale == 1.0:
            return
        inv = np.float32(1.0 / self.scale)
        for ps in param_sets:
            ps.grad *= inv
            if ps.bias_grad is not None:
                ps.bias_grad *= inv
