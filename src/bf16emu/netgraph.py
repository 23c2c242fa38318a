"""Sequential network execution with the mixed-precision dataflow.

Parameters live as {FP32 master, quantized shadow, FP32 gradient}; bias
tensors never pass through quantization.  Activations and error
gradients are quantized where they cross layer boundaries, according to
the per-layer-class policy.  Every quantization, shadow weights included,
goes through `_quantize`.  With an FP32 policy it is the identity and the
engine is a plain FP32 network.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .kernels import (
    ActivationKind,
    BatchNormState,
    ConvSpec,
    GemmAccumOrder,
    LstmWeights,
    PoolKind,
)
from .tensor import (
    HeNormal,
    Precision,
    QuantPolicy,
    RngStream,
    ShapeError,
    Tensor,
    XavierUniform,
    Zeros,
    init_tensor,
    quantize_tensor,
)

__all__ = [
    "Dense",
    "Conv2d",
    "BatchNorm",
    "Activation",
    "Pool",
    "Dropout",
    "EltwiseAdd",
    "Lstm",
    "Flatten",
    "ParamSet",
    "QuantStats",
    "Tape",
    "Network",
    "build_network",
]


# --------------------------------------------------------------------------
# layer specs (architecture description)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Dense:
    in_features: int
    out_features: int
    has_bias: bool = True


@dataclass(frozen=True)
class Conv2d:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0
    has_bias: bool = True


@dataclass(frozen=True)
class BatchNorm:
    channels: int
    eps: float = 1e-5


@dataclass(frozen=True)
class Activation:
    kind: ActivationKind
    alpha: float = 0.01


@dataclass(frozen=True)
class Pool:
    kind: PoolKind
    window: int
    stride: int


@dataclass(frozen=True)
class Dropout:
    p: float


@dataclass(frozen=True)
class EltwiseAdd:
    # Index of the earlier layer whose output is added (simple residual).
    source: int


@dataclass(frozen=True)
class Lstm:
    input_size: int
    hidden_size: int


@dataclass(frozen=True)
class Flatten:
    """Reshape (N, ...) to (N, features); no arithmetic, no quantization."""


# --------------------------------------------------------------------------
# bookkeeping
# --------------------------------------------------------------------------


@dataclass
class ParamSet:
    """FP32 master weights, quantized shadow, FP32 grad, FP32 bias."""

    name: str
    master: Tensor
    shadow: Tensor
    grad: np.ndarray
    bias: Tensor | None = None
    bias_grad: np.ndarray | None = None


class QuantStats:
    """Counts error-gradient elements zeroed by quantization."""

    def __init__(self):
        self.zeroed = 0
        self.nonzero = 0

    def record(self, before: np.ndarray, after: np.ndarray):
        nz = before != 0
        self.nonzero += int(np.count_nonzero(nz))
        self.zeroed += int(np.count_nonzero(nz & (after == 0)))

    @property
    def underflow_fraction(self) -> float:
        if self.nonzero == 0:
            return 0.0
        return self.zeroed / self.nonzero


class Tape:
    """Per-forward cache of layer inputs/outputs; consumed once."""

    def __init__(self, train: bool):
        self.train = train
        self.caches: list = []
        self.outputs: list[Tensor] = []
        self.consumed = False


@dataclass
class _Ctx:
    policy: QuantPolicy
    train: bool
    rng: RngStream | None
    stats: QuantStats | None
    order: GemmAccumOrder


_ROLE_FLAGS = {
    "weight": "quantize_weights",
    "act": "quantize_activations",
    "err": "quantize_error_grads",
}


def _quantize(t: Tensor, ctx: _Ctx, layer_class: str, role: str) -> Tensor:
    """Quantize ``t`` if the policy's rule for ``layer_class`` asks for
    its role ("weight", "act" or "err"); returns ``t`` itself otherwise.

    Error gradients are recorded in the context's stats.
    """
    policy = ctx.policy
    if policy.identity or t.tag is policy.precision:
        return t
    if not getattr(policy.rule(layer_class), _ROLE_FLAGS[role]):
        return t
    q = quantize_tensor(t, policy.precision, policy.mode)
    if role == "err" and ctx.stats is not None:
        ctx.stats.record(t.data, q.data)
    return q


# --------------------------------------------------------------------------
# layer implementations
# --------------------------------------------------------------------------


class _Layer:
    layer_class = "gemm"

    def __init__(self, index: int):
        self.index = index
        self.params: list[ParamSet] = []

    def forward(self, x: Tensor, ctx: _Ctx, tape: Tape) -> Tensor:
        raise NotImplementedError

    def backward(self, dy: Tensor, ctx: _Ctx, cache) -> Tensor:
        raise NotImplementedError


class _DenseLayer(_Layer):
    layer_class = "gemm"

    def __init__(self, index, spec: Dense, rng: RngStream):
        super().__init__(index)
        self.spec = spec
        w = init_tensor((spec.out_features, spec.in_features),
                        XavierUniform(spec.in_features, spec.out_features),
                        rng.child(0))
        bias = None
        bias_grad = None
        if spec.has_bias:
            bias = init_tensor((spec.out_features,), Zeros(), rng.child(1))
            bias_grad = np.zeros(spec.out_features, np.float32)
        self.params = [ParamSet(f"dense{index}.w", w, w.copy(),
                                np.zeros(w.shape, np.float32), bias,
                                bias_grad)]

    def forward(self, x, ctx, tape):
        if x.data.ndim != 2 or x.shape[1] != self.spec.in_features:
            raise ShapeError(f"dense{self.index} input shape {x.shape}")
        ps = self.params[0]
        xq = _quantize(x, ctx, "gemm", "act")
        y = K._gemm(xq.data, ps.shadow.data.T, ctx.order)
        if ps.bias is not None:
            y = y + ps.bias.data
        out = _quantize(Tensor(y), ctx, "gemm", "act")
        tape.caches.append(xq)
        return out

    def backward(self, dy, ctx, cache):
        xq = cache
        ps = self.params[0]
        dyq = _quantize(dy, ctx, "gemm", "err")
        ps.grad += K._gemm(dyq.data.T, xq.data, ctx.order)
        if ps.bias is not None:
            ps.bias_grad += dyq.data.sum(axis=0, dtype=np.float32)
        dx = K._gemm(dyq.data, ps.shadow.data, ctx.order)
        return Tensor(dx)


class _ConvLayer(_Layer):
    layer_class = "conv"

    def __init__(self, index, spec: Conv2d, rng: RngStream):
        super().__init__(index)
        self.spec = spec
        self.conv = ConvSpec(spec.kernel, spec.kernel, spec.stride,
                             spec.pad, spec.in_channels, spec.out_channels)
        fan_in = spec.in_channels * spec.kernel * spec.kernel
        w = init_tensor((spec.out_channels, spec.in_channels,
                         spec.kernel, spec.kernel), HeNormal(fan_in),
                        rng.child(0))
        bias = None
        bias_grad = None
        if spec.has_bias:
            bias = init_tensor((spec.out_channels,), Zeros(), rng.child(1))
            bias_grad = np.zeros(spec.out_channels, np.float32)
        self.params = [ParamSet(f"conv{index}.w", w, w.copy(),
                                np.zeros(w.shape, np.float32), bias,
                                bias_grad)]

    def forward(self, x, ctx, tape):
        ps = self.params[0]
        xq = _quantize(x, ctx, "conv", "act")
        y = K.conv2d_forward(xq, ps.shadow, self.conv, ctx.order)
        if ps.bias is not None:
            y = K.bias_add(y, ps.bias)
        out = _quantize(y, ctx, "conv", "act")
        tape.caches.append(xq)
        return out

    def backward(self, dy, ctx, cache):
        xq = cache
        ps = self.params[0]
        dyq = _quantize(dy, ctx, "conv", "err")
        dx, dw = K.conv2d_backward(xq, ps.shadow, dyq, self.conv, ctx.order)
        ps.grad += dw.data
        if ps.bias is not None:
            ps.bias_grad += dyq.data.sum(axis=(0, 2, 3), dtype=np.float32)
        return dx


class _BatchNormLayer(_Layer):
    layer_class = "batchnorm"

    def __init__(self, index, spec: BatchNorm, rng: RngStream):
        super().__init__(index)
        self.spec = spec
        gamma = Tensor(np.ones(spec.channels, np.float32))
        beta = Tensor(np.zeros(spec.channels, np.float32))
        self.params = [ParamSet(f"batchnorm{index}.gamma", gamma,
                                gamma.copy(),
                                np.zeros(spec.channels, np.float32), beta,
                                np.zeros(spec.channels, np.float32))]

    def forward(self, x, ctx, tape):
        ps = self.params[0]
        xq = _quantize(x, ctx, "batchnorm", "act")
        state = BatchNormState(ps.shadow.data, ps.bias.data, self.spec.eps)
        y, cache = K.batchnorm_forward(xq, state)
        tape.caches.append((state, cache))
        return y

    def backward(self, dy, ctx, cache):
        state, bn_cache = cache
        dyq = _quantize(dy, ctx, "batchnorm", "err")
        dx, dgamma, dbeta = K.batchnorm_backward(dyq, state, bn_cache)
        ps = self.params[0]
        ps.grad += dgamma
        ps.bias_grad += dbeta
        return dx


class _ActivationLayer(_Layer):
    layer_class = "activation"

    def __init__(self, index, spec: Activation, rng: RngStream):
        super().__init__(index)
        self.spec = spec

    def forward(self, x, ctx, tape):
        xq = _quantize(x, ctx, "activation", "act")
        tape.caches.append(xq)
        return K.activation_forward(self.spec.kind, xq, self.spec.alpha)

    def backward(self, dy, ctx, cache):
        dyq = _quantize(dy, ctx, "activation", "err")
        return K.activation_backward(self.spec.kind, cache, dyq,
                                     self.spec.alpha)


class _PoolLayer(_Layer):
    layer_class = "pool"

    def __init__(self, index, spec: Pool, rng: RngStream):
        super().__init__(index)
        self.spec = spec

    def forward(self, x, ctx, tape):
        xq = _quantize(x, ctx, "pool", "act")
        y, cache = K.pool_forward(self.spec.kind, xq, self.spec.window,
                                  self.spec.stride)
        tape.caches.append(cache)
        return y

    def backward(self, dy, ctx, cache):
        dyq = _quantize(dy, ctx, "pool", "err")
        return K.pool_backward(self.spec.kind, dyq, cache)


class _DropoutLayer(_Layer):
    layer_class = "dropout"

    def __init__(self, index, spec: Dropout, rng: RngStream):
        super().__init__(index)
        self.spec = spec

    def forward(self, x, ctx, tape):
        if not ctx.train or self.spec.p == 0.0:
            tape.caches.append(None)
            return x
        if ctx.rng is None:
            raise ValueError("dropout in train mode needs a step rng")
        xq = _quantize(x, ctx, "dropout", "act")
        y, mask = K.dropout(xq, self.spec.p, ctx.rng.child(self.index))
        tape.caches.append(mask)
        return y

    def backward(self, dy, ctx, cache):
        if cache is None:
            return dy
        dyq = _quantize(dy, ctx, "dropout", "err")
        scale = np.float32(1.0 / (1.0 - self.spec.p))
        return Tensor(dyq.data * cache * scale)


class _EltwiseAddLayer(_Layer):
    layer_class = "eltwise"

    def __init__(self, index, spec: EltwiseAdd, rng: RngStream):
        super().__init__(index)
        if not 0 <= spec.source < index:
            raise ValueError("eltwise source must be an earlier layer")
        self.spec = spec

    def forward(self, x, ctx, tape):
        skip = tape.outputs[self.spec.source]
        if skip.shape != x.shape:
            raise ShapeError("eltwise operands differ in shape")
        xq = _quantize(x, ctx, "eltwise", "act")
        sq = _quantize(skip, ctx, "eltwise", "act")
        tape.caches.append(None)
        return Tensor(xq.data + sq.data)

    def backward(self, dy, ctx, cache):
        # The caller routes a copy of the returned gradient to the skip
        # source as well; both branches see the same quantized gradient.
        return _quantize(dy, ctx, "eltwise", "err")


class _LstmLayer(_Layer):
    layer_class = "lstm"

    def __init__(self, index, spec: Lstm, rng: RngStream):
        super().__init__(index)
        self.spec = spec
        h, i = spec.hidden_size, spec.input_size
        w_ih = init_tensor((4 * h, i), XavierUniform(i, h), rng.child(0))
        w_hh = init_tensor((4 * h, h), XavierUniform(h, h), rng.child(1))
        bias = init_tensor((4 * h,), Zeros(), rng.child(2))
        self.params = [
            ParamSet(f"lstm{index}.w_ih", w_ih, w_ih.copy(),
                     np.zeros(w_ih.shape, np.float32), bias,
                     np.zeros(4 * h, np.float32)),
            ParamSet(f"lstm{index}.w_hh", w_hh, w_hh.copy(),
                     np.zeros(w_hh.shape, np.float32)),
        ]

    def _weights(self) -> LstmWeights:
        return LstmWeights(self.params[0].shadow, self.params[1].shadow,
                           self.params[0].bias)

    def forward(self, x, ctx, tape):
        if x.data.ndim != 3 or x.shape[2] != self.spec.input_size:
            raise ShapeError(f"lstm{self.index} expects (N,T,I), got {x.shape}")
        n, t, _ = x.shape
        hsz = self.spec.hidden_size
        h = Tensor(np.zeros((n, hsz), np.float32))
        c = Tensor(np.zeros((n, hsz), np.float32))
        weights = self._weights()
        # Quantization is elementwise, so one call on the whole sequence
        # gives the same bits as one call per step.
        xq = _quantize(x, ctx, "lstm", "act")
        steps = []
        for step in range(t):
            xt = Tensor(np.ascontiguousarray(xq.data[:, step, :]), xq.tag)
            hq = _quantize(h, ctx, "lstm", "act")
            h, c, cache = K.lstm_cell_forward(xt, hq, c, weights, ctx.order)
            steps.append(cache)
        tape.caches.append((steps, x.shape))
        return h

    def backward(self, dy, ctx, cache):
        steps, x_shape = cache
        n, t, _ = x_shape
        hsz = self.spec.hidden_size
        dh = _quantize(dy, ctx, "lstm", "err")
        dc = Tensor(np.zeros((n, hsz), np.float32))
        dx_seq = np.zeros(x_shape, np.float32)
        w_ih_ps, w_hh_ps = self.params
        for step in range(t - 1, -1, -1):
            dx, dh, dc, dw_ih, dw_hh, dbias = K.lstm_cell_backward(
                dh, dc, steps[step],
                lambda dpre: _quantize(dpre, ctx, "lstm", "err"))
            dx_seq[:, step, :] = dx.data
            w_ih_ps.grad += dw_ih.data
            w_hh_ps.grad += dw_hh.data
            w_ih_ps.bias_grad += dbias.data
        return Tensor(dx_seq)


class _FlattenLayer(_Layer):
    layer_class = "eltwise"  # policy-irrelevant; never quantizes

    def __init__(self, index, spec: Flatten, rng: RngStream):
        super().__init__(index)

    def forward(self, x, ctx, tape):
        tape.caches.append(x.shape)
        n = x.shape[0]
        return Tensor(x.data.reshape(n, -1).copy(), x.tag)

    def backward(self, dy, ctx, cache):
        return Tensor(dy.data.reshape(cache).copy(), dy.tag)


_LAYER_TYPES = {
    Dense: _DenseLayer,
    Flatten: _FlattenLayer,
    Conv2d: _ConvLayer,
    BatchNorm: _BatchNormLayer,
    Activation: _ActivationLayer,
    Pool: _PoolLayer,
    Dropout: _DropoutLayer,
    EltwiseAdd: _EltwiseAddLayer,
    Lstm: _LstmLayer,
}


# --------------------------------------------------------------------------
# network
# --------------------------------------------------------------------------


class Network:
    def __init__(self, layers, policy: QuantPolicy,
                 order: GemmAccumOrder = GemmAccumOrder.SEQUENTIAL_K):
        self.layers = layers
        self.policy = policy
        self.order = order
        self.refresh_shadows()

    # -- parameters -------------------------------------------------------

    def param_sets(self):
        for layer in self.layers:
            yield from layer.params

    def refresh_shadows(self):
        """Re-quantize every master into its shadow; bias stays FP32."""
        ctx = _Ctx(self.policy, False, None, None, self.order)
        for layer in self.layers:
            for ps in layer.params:
                q = _quantize(ps.master, ctx, layer.layer_class, "weight")
                ps.shadow = ps.master.copy() if q is ps.master else q
                assert ps.bias is None or ps.bias.tag is Precision.FP32

    def zero_grads(self):
        for ps in self.param_sets():
            ps.grad[...] = 0
            if ps.bias_grad is not None:
                ps.bias_grad[...] = 0

    # -- execution --------------------------------------------------------

    def forward(self, x: Tensor, train: bool = True,
                step_rng: RngStream | None = None,
                stats: QuantStats | None = None):
        ctx = _Ctx(self.policy, train, step_rng, stats, self.order)
        tape = Tape(train)
        out = x
        for layer in self.layers:
            out = layer.forward(out, ctx, tape)
            tape.outputs.append(out)
        return out, tape

    def backward(self, tape: Tape, dy: Tensor,
                 stats: QuantStats | None = None) -> Tensor:
        if tape.consumed:
            raise RuntimeError("tape already consumed by a backward pass")
        tape.consumed = True
        if tape.outputs and dy.shape != tape.outputs[-1].shape:
            raise ShapeError(f"dy shape {dy.shape} != output shape "
                             f"{tape.outputs[-1].shape}")
        ctx = _Ctx(self.policy, tape.train, None, stats, self.order)
        pending: dict[int, np.ndarray] = {}
        grad = dy
        for i in range(len(self.layers) - 1, -1, -1):
            if i in pending:
                grad = Tensor(grad.data + pending.pop(i))
            layer = self.layers[i]
            grad = layer.backward(grad, ctx, tape.caches[i])
            if isinstance(layer, _EltwiseAddLayer):
                src = layer.spec.source
                pending[src] = pending.get(src, 0) + grad.data
        return grad


def build_network(specs, policy: QuantPolicy, rng: RngStream,
                  order: GemmAccumOrder = GemmAccumOrder.SEQUENTIAL_K) -> Network:
    """Instantiate layers with deterministic per-layer init streams."""
    layers = []
    for i, spec in enumerate(specs):
        try:
            cls = _LAYER_TYPES[type(spec)]
        except KeyError:
            raise ValueError(f"unknown layer spec {spec!r}") from None
        layers.append(cls(i, spec, rng.child(i)))
    return Network(layers, policy, order)
