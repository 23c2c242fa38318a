"""FP32 master-weight optimizers and static power-of-two loss scaling.

Optimizers read FP32 gradients and update FP32 masters only; no
quantization happens inside an update.  They walk `ParamSet.arrays()`,
so a weight and its bias are updated the same way, weight first.  Their
state is one dict of float32 arrays keyed by the array's key
(``ParamSet.name``, or that plus ``".bias"``), not by object identity:
``id()`` values are reused once an object is freed, and a copy of a
parameter set with the same name continues its state.  Loss scaling
exists solely to support the FP16 comparison arm: the scale is
restricted to powers of two so that scaling followed by unscaling is
bit-lossless in FP32.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Sgd",
    "Adam",
    "LossScaler",
]


class Sgd:
    """SGD with optional Nesterov momentum; decay folded into the grad.

    v <- mu*v - lr*g; nesterov: w <- w + mu*v - lr*g, else w <- w + v.
    """

    def __init__(self, lr: float, momentum: float = 0.0,
                 nesterov: bool = False, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be non-negative")
        self.lr = lr
        self.momentum = momentum
        self.nesterov = nesterov
        self.weight_decay = weight_decay
        self.velocity: dict[str, np.ndarray] = {}

    def step(self, param_sets):
        lr = np.float32(self.lr)
        mu = np.float32(self.momentum)
        wd = np.float32(self.weight_decay)
        for ps in param_sets:
            for key, w, g in ps.arrays():
                v = self.velocity.get(key)
                if v is None:
                    v = self.velocity[key] = np.zeros_like(w)
                if self.weight_decay:
                    g = g + wd * w
                v *= mu
                v -= lr * g
                if self.nesterov:
                    w += mu * v - lr * g
                else:
                    w += v


class Adam:
    """Kingma-Ba Adam with bias-corrected moments, all state FP32."""

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must be in [0, 1)")
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.t = 0
        self.moments: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    def step(self, param_sets):
        self.t += 1
        lr = np.float32(self.lr)
        b1 = np.float32(self.beta1)
        b2 = np.float32(self.beta2)
        eps = np.float32(self.eps)
        c1 = np.float32(1.0 - self.beta1 ** self.t)
        c2 = np.float32(1.0 - self.beta2 ** self.t)
        one = np.float32(1)
        for ps in param_sets:
            for key, w, g in ps.arrays():
                if key not in self.moments:
                    self.moments[key] = (np.zeros_like(w), np.zeros_like(w))
                m, v = self.moments[key]
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

    def scale_loss_grad(self, loss_grad: np.ndarray) -> np.ndarray:
        if self.scale == 1.0:
            return loss_grad
        return loss_grad * np.float32(self.scale)

    def unscale_grads(self, param_sets):
        if self.scale == 1.0:
            return
        inv = np.float32(1.0 / self.scale)
        for ps in param_sets:
            for _, _, grad in ps.arrays():
                grad *= inv
