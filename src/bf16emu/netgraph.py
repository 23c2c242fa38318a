"""Sequential network execution with the mixed-precision dataflow.

A `ParamSet` holds plain float32 arrays: the FP32 master, its FP32
gradient, an optional FP32 bias with its gradient, and the shadow the
kernels read, which is the quantized master (or the master itself where
nothing is quantized).  Biases never pass through quantization.
`Network.forward` and `Network.backward` take and return float32 arrays
too; the precision tag (`Tensor`) lives only between the layers, where
it lets `_quantize` skip values already in the target format.  Layers
do only arithmetic and caching: they hand the kernels plain arrays and
wrap the results in `Tensor`.
`Network` quantizes at layer boundaries: the network input, each
layer's output and the error gradient entering each layer.  Only the
LSTM quantizes inside itself, in its recurrence: the hidden state it
feeds back and its gate gradients.  Every quantization, shadow weights
included, goes through `_quantize`, and which tensors it skips is one
fixed table, `_FP32_ROLES`.  The policy sets only the format and
rounding; with an FP32 policy `_quantize` is the identity and the
engine is a plain FP32 network.

A layer whose results are exact in its input's format keeps the input's
tag, so `_quantize` skips them: Flatten, and the selecting layers
(`_Layer.selects`), ReLU and max pooling, in both directions.
Quantizing an exact value leaves its bits as they are, so skipping it
changes no result.  Avg pooling computes new values; they are quantized.
`QuantStats` still counts each error gradient a selecting layer passes
back, as the quantization it skips would have, so `grad_underflow_frac`
does not depend on the skip; Flatten's pass-through is not counted.

Between the layers, 4-D activations and error gradients are batch-last
(C, H, W, N), the layout of the conv and pool kernels, so a whole conv
stack runs along rows that hold the batch.  `Network.forward`, `infer`
and `backward` take and return NCHW: a 4-D input or ``dy`` is
converted once on entry, a 4-D output or input gradient once on exit.
Flatten maps (C, H, W, N) to (N, C*H*W) in NCHW feature order, and
back.  Elementwise layers do not see the layout; the rest keep the
order of an NCHW network, so every bit stays as it was.  NumPy's
pairwise sum follows the memory layout, so the conv bias gradient and
BatchNorm's 4-D statistics reduce NCHW copies; Dropout draws its mask
in the NCHW shape; dw's GEMM sums in (n, i, j) order (`kernels`).

`Network.infer` is the forward-only pass of evaluation.  It runs the
layer loop of `forward` with a `Tape` that does not record: layers keep
no backward cache, the LSTM keeps no per-step state, and of the layer
outputs only those an `EltwiseAdd` reads are kept.  Its output has the
bits of `forward(train=False)`.  `Network.backward` with
``input_grad=False`` lets the first layer skip its input gradient, which
training never reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels as K
from .kernels import PoolKind
from .tensor import (
    HeNormal,
    QuantPolicy,
    RngStream,
    ShapeError,
    Tensor,
    XavierUniform,
    init_tensor,
    quantize_tensor,
)

__all__ = [
    "Dense",
    "Conv2d",
    "BatchNorm",
    "ReLU",
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


@dataclass(frozen=True)
class Conv2d:
    in_channels: int
    out_channels: int
    kernel: int
    stride: int = 1
    pad: int = 0


@dataclass(frozen=True)
class BatchNorm:
    channels: int
    eps: float = 1e-5

    def __post_init__(self):
        if self.eps <= 0:
            raise ValueError("batchnorm eps must be positive")


@dataclass(frozen=True)
class ReLU:
    """max(x, 0); selects, so its results keep their input's tag."""


@dataclass(frozen=True)
class Pool:
    """Pooling over the non-overlapping window x window tiles."""

    kind: PoolKind
    window: int

    def __post_init__(self):
        if self.window < 1:
            raise ValueError("pool window must be at least 1")


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
    """Reshape (N, ...) to (N, features); no arithmetic, keeps the tag."""


# --------------------------------------------------------------------------
# bookkeeping
# --------------------------------------------------------------------------


class ParamSet:
    """FP32 master weights and optional FP32 bias, each with a zeroed FP32
    gradient, plus the shadow the kernels read (set by the network)."""

    def __init__(self, name: str, master: np.ndarray,
                 bias: np.ndarray | None = None):
        for what, a in (("master", master), ("bias", bias)):
            if a is not None and not (isinstance(a, np.ndarray)
                                      and a.dtype == np.float32):
                raise ValueError(f"{name}: {what} must be a float32 array")
        self.name = name
        self.master = master
        self.shadow = master
        self.grad = np.zeros_like(master)
        self.bias = bias
        self.bias_grad = None if bias is None else np.zeros_like(bias)

    def arrays(self):
        """``(key, array, grad)`` for the weight, then for the bias."""
        yield self.name, self.master, self.grad
        if self.bias is not None:
            yield self.name + ".bias", self.bias, self.bias_grad


class QuantStats:
    """Counts error-gradient elements zeroed by quantization."""

    def __init__(self):
        self.zeroed = 0
        self.nonzero = 0

    def record(self, before: np.ndarray, after: np.ndarray):
        nz = before != 0
        self.nonzero += int(np.count_nonzero(nz))
        if after is not before:
            self.zeroed += int(np.count_nonzero(nz & (after == 0)))

    @property
    def underflow_fraction(self) -> float:
        if self.nonzero == 0:
            return 0.0
        return self.zeroed / self.nonzero


class Tape:
    """Per-forward cache of layer inputs/outputs; consumed once.

    A tape made with ``record=False`` keeps nothing for a backward pass:
    `cache` drops what the layers hand it, and the network keeps only the
    outputs an `EltwiseAdd` reads (``None`` stands for the others)."""

    def __init__(self, record: bool = True):
        self.record = record
        self.caches: list = []
        self.outputs: list[Tensor | None] = []
        self.consumed = False

    def cache(self, value) -> None:
        """Keep ``value`` for the layer's backward, if recording."""
        if self.record:
            self.caches.append(value)


@dataclass
class _Ctx:
    policy: QuantPolicy
    train: bool = False
    rng: RngStream | None = None
    stats: QuantStats | None = None


# Roles ("weight", "act", "err") a layer class keeps in FP32; every other
# role of every class is quantized.  Batchnorm quantizes only its output:
# scale/shift are affine parameters, not GEMM weights, and its incoming
# error grad stays FP32.
_FP32_ROLES = {"batchnorm": ("weight", "err")}


def _batch_last(a: np.ndarray) -> np.ndarray:
    """(C, H, W, N) copy of a 4-D NCHW array; other arrays as they are."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)) if a.ndim == 4 else a


def _nchw(a: np.ndarray) -> np.ndarray:
    """NCHW copy of a 4-D batch-last array; other arrays as they are."""
    return np.ascontiguousarray(a.transpose(3, 0, 1, 2)) if a.ndim == 4 else a


def _quantize(t: Tensor, ctx: _Ctx, layer_class: str, role: str,
              selected: bool = False) -> Tensor:
    """Quantize ``t``, the ``role`` tensor of a ``layer_class`` layer,
    unless the policy is FP32, ``_FP32_ROLES`` keeps the role or ``t`` is
    already in its format; returns ``t`` itself then.

    Error gradients are recorded in the context's stats.  A ``selected``
    one, passed back with its tag by a selecting layer, is recorded too,
    as quantizing it would have been: an exact value loses nothing.
    """
    policy = ctx.policy
    if policy.identity or role in _FP32_ROLES.get(layer_class, ()):
        return t
    if t.tag is policy.precision:
        if selected and role == "err" and ctx.stats is not None:
            ctx.stats.record(t.data, t.data)
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
    # True where forward only selects or zeros elements of x, and backward
    # those of dy: the results are exact in their input's format, so they
    # keep its tag and `_quantize` skips them.
    selects = False

    def __init__(self, index: int):
        self.index = index
        self.params: list[ParamSet] = []

    def _result(self, data: np.ndarray, source: Tensor) -> Tensor:
        """``data`` as a Tensor, with ``source``'s tag if the layer
        selects."""
        return Tensor(data, source.tag) if self.selects else Tensor(data)

    def forward(self, x: Tensor, ctx: _Ctx, tape: Tape) -> Tensor:
        raise NotImplementedError

    def backward(self, dy: Tensor, ctx: _Ctx, cache,
                 input_grad: bool) -> Tensor | None:
        """Accumulates parameter gradients and returns the input
        gradient.  Without ``input_grad`` a layer may skip computing it
        and return None."""
        raise NotImplementedError


class _DenseLayer(_Layer):
    layer_class = "gemm"

    def __init__(self, index, spec: Dense, rng: RngStream):
        super().__init__(index)
        self.spec = spec
        w = init_tensor((spec.out_features, spec.in_features),
                        XavierUniform(spec.in_features, spec.out_features),
                        rng.child(0))
        self.params = [ParamSet(f"dense{index}.w", w,
                                np.zeros(spec.out_features, np.float32))]

    def forward(self, x, ctx, tape):
        if x.data.ndim != 2 or x.shape[1] != self.spec.in_features:
            raise ShapeError(f"dense{self.index} input shape {x.shape}")
        ps = self.params[0]
        y = K._gemm(x.data, ps.shadow.T) + ps.bias
        tape.cache(x)
        return Tensor(y)

    def backward(self, dy, ctx, cache, input_grad):
        x = cache
        ps = self.params[0]
        ps.grad += K._gemm(dy.data.T, x.data)
        ps.bias_grad += dy.data.sum(axis=0, dtype=np.float32)
        if not input_grad:
            return None
        return Tensor(K._gemm(dy.data, ps.shadow))


class _ConvLayer(_Layer):
    layer_class = "conv"

    def __init__(self, index, spec: Conv2d, rng: RngStream):
        super().__init__(index)
        self.spec = spec
        fan_in = spec.in_channels * spec.kernel * spec.kernel
        w = init_tensor((spec.out_channels, spec.in_channels,
                         spec.kernel, spec.kernel), HeNormal(fan_in),
                        rng.child(0))
        self.params = [ParamSet(f"conv{index}.w", w,
                                np.zeros(spec.out_channels, np.float32))]

    def forward(self, x, ctx, tape):
        ps = self.params[0]
        y = K.conv2d_forward(x.data, ps.shadow, self.spec.stride,
                             self.spec.pad, ps.bias)
        tape.cache(x.data)
        return Tensor(y)

    def backward(self, dy, ctx, cache, input_grad):
        ps = self.params[0]
        dx, dw = K.conv2d_backward(cache, ps.shadow, dy.data,
                                   self.spec.stride, self.spec.pad,
                                   input_grad)
        ps.grad += dw
        # NumPy's pairwise sum follows the memory layout, so the bias
        # gradient reduces an NCHW copy, in the order of an NCHW network.
        ps.bias_grad += _nchw(dy.data).sum(axis=(0, 2, 3), dtype=np.float32)
        return None if dx is None else Tensor(dx)


class _BatchNormLayer(_Layer):
    layer_class = "batchnorm"

    def __init__(self, index, spec: BatchNorm, rng: RngStream):
        super().__init__(index)
        self.spec = spec
        self.params = [ParamSet(f"batchnorm{index}.gamma",
                                np.ones(spec.channels, np.float32),
                                np.zeros(spec.channels, np.float32))]

    # The kernel reduces 4-D statistics over NCHW copies, in the order
    # of an NCHW network.
    def forward(self, x, ctx, tape):
        ps = self.params[0]
        y, cache = K.batchnorm_forward(_nchw(x.data), ps.shadow, ps.bias,
                                       self.spec.eps)
        tape.cache(cache)
        return Tensor(_batch_last(y))

    def backward(self, dy, ctx, cache, input_grad):
        ps = self.params[0]
        dx, dgamma, dbeta = K.batchnorm_backward(_nchw(dy.data), ps.shadow,
                                                 cache)
        ps.grad += dgamma
        ps.bias_grad += dbeta
        return Tensor(_batch_last(dx))


class _ReluLayer(_Layer):
    layer_class = "activation"
    selects = True

    def __init__(self, index, spec: ReLU, rng: RngStream):
        super().__init__(index)

    def forward(self, x, ctx, tape):
        tape.cache(x.data)
        return self._result(K.relu_forward(x.data), x)

    def backward(self, dy, ctx, cache, input_grad):
        return self._result(K.relu_backward(cache, dy.data), dy)


class _PoolLayer(_Layer):
    layer_class = "pool"

    def __init__(self, index, spec: Pool, rng: RngStream):
        super().__init__(index)
        self.spec = spec
        self.selects = spec.kind is PoolKind.MAX

    def forward(self, x, ctx, tape):
        y, cache = K.pool_forward(self.spec.kind, x.data, self.spec.window)
        tape.cache(cache)
        return self._result(y, x)

    def backward(self, dy, ctx, cache, input_grad):
        return self._result(K.pool_backward(dy.data, cache), dy)


class _DropoutLayer(_Layer):
    layer_class = "dropout"

    def __init__(self, index, spec: Dropout, rng: RngStream):
        super().__init__(index)
        self.spec = spec

    def forward(self, x, ctx, tape):
        if not ctx.train or self.spec.p == 0.0:
            tape.cache(None)
            return x
        if ctx.rng is None:
            raise ValueError("dropout in train mode needs a step rng")
        # The mask is drawn in the NCHW shape, as an NCHW network draws it.
        y, mask = K.dropout(_nchw(x.data), self.spec.p,
                            ctx.rng.child(self.index))
        tape.cache(_batch_last(mask))
        return Tensor(_batch_last(y))

    def backward(self, dy, ctx, cache, input_grad):
        if cache is None:
            return dy
        scale = np.float32(1.0 / (1.0 - self.spec.p))
        return Tensor(dy.data * cache * scale)


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
        tape.cache(None)
        return Tensor(x.data + skip.data)

    def backward(self, dy, ctx, cache, input_grad):
        # The caller routes a copy of the returned gradient to the skip
        # source as well; both branches see the same quantized gradient.
        return dy


class _LstmLayer(_Layer):
    layer_class = "lstm"

    def __init__(self, index, spec: Lstm, rng: RngStream):
        super().__init__(index)
        self.spec = spec
        h, i = spec.hidden_size, spec.input_size
        w_ih = init_tensor((4 * h, i), XavierUniform(i, h), rng.child(0))
        w_hh = init_tensor((4 * h, h), XavierUniform(h, h), rng.child(1))
        self.params = [
            ParamSet(f"lstm{index}.w_ih", w_ih, np.zeros(4 * h, np.float32)),
            ParamSet(f"lstm{index}.w_hh", w_hh),
        ]

    def forward(self, x, ctx, tape):
        if x.data.ndim != 3 or x.shape[2] != self.spec.input_size:
            raise ShapeError(f"lstm{self.index} expects (N,T,I), got {x.shape}")
        n, t, _ = x.shape
        hsz = self.spec.hidden_size
        w_ih, w_hh = (ps.shadow for ps in self.params)
        bias = self.params[0].bias
        h = np.zeros((n, hsz), np.float32)
        c = np.zeros((n, hsz), np.float32)
        steps = []
        for step in range(t):
            xt = np.ascontiguousarray(x.data[:, step, :])
            hq = _quantize(Tensor(h), ctx, self.layer_class, "act").data
            pre = (K._gemm(xt, w_ih.T) + K._gemm(hq, w_hh.T)) + bias
            h, c, cell = K.lstm_cell_forward(pre, c)
            if tape.record:
                steps.append((xt, hq, cell))
        tape.cache((steps, x.shape))
        return Tensor(h)

    def backward(self, dy, ctx, cache, input_grad):
        steps, x_shape = cache
        w_ih_ps, w_hh_ps = self.params
        w_ih, w_hh = w_ih_ps.shadow, w_hh_ps.shadow
        dh = dy.data
        dc = np.zeros_like(dh)
        dx = np.zeros(x_shape, np.float32) if input_grad else None
        for step in range(x_shape[1] - 1, -1, -1):
            xt, hq, cell = steps[step]
            dpre, dc = K.lstm_cell_backward(dh, dc, cell)
            dpre = _quantize(Tensor(dpre), ctx, self.layer_class, "err").data
            if input_grad:
                dx[:, step, :] = K._gemm(dpre, w_ih)
            dh = K._gemm(dpre, w_hh)
            w_ih_ps.grad += K._gemm(dpre.T, xt)
            w_hh_ps.grad += K._gemm(dpre.T, hq)
            w_ih_ps.bias_grad += dpre.sum(axis=0, dtype=np.float32)
        return None if dx is None else Tensor(dx)


class _FlattenLayer(_Layer):
    layer_class = "eltwise"  # keeps the tag: a quantized input passes as is

    def __init__(self, index, spec: Flatten, rng: RngStream):
        super().__init__(index)

    # A batch-last (C, H, W, N) input flattens in NCHW feature order.
    def forward(self, x, ctx, tape):
        data = _nchw(x.data) if x.data.ndim == 4 else x.data.copy()
        tape.cache(data.shape)
        return Tensor(data.reshape(len(data), -1), x.tag)

    def backward(self, dy, ctx, cache, input_grad):
        data = dy.data.reshape(cache)
        return Tensor(_batch_last(data) if data.ndim == 4 else data.copy(),
                      dy.tag)


_LAYER_TYPES = {
    Dense: _DenseLayer,
    Flatten: _FlattenLayer,
    Conv2d: _ConvLayer,
    BatchNorm: _BatchNormLayer,
    ReLU: _ReluLayer,
    Pool: _PoolLayer,
    Dropout: _DropoutLayer,
    EltwiseAdd: _EltwiseAddLayer,
    Lstm: _LstmLayer,
}


# --------------------------------------------------------------------------
# network
# --------------------------------------------------------------------------


class Network:
    def __init__(self, layers, policy: QuantPolicy):
        self.layers = layers
        self.policy = policy
        # The layers whose outputs an EltwiseAdd reads.
        self._skip_sources = {layer.spec.source for layer in layers
                              if isinstance(layer, _EltwiseAddLayer)}
        self.refresh_shadows()

    # -- parameters -------------------------------------------------------

    def param_sets(self):
        for layer in self.layers:
            yield from layer.params

    def refresh_shadows(self):
        """Re-quantize every master into its shadow; bias stays FP32.

        A master that `_quantize` leaves as is (FP32 policy, batchnorm)
        is its own shadow: the optimizer writes masters only between
        `backward` and the next refresh, and no kernel writes its weights.
        """
        ctx = _Ctx(self.policy)
        for layer in self.layers:
            for ps in layer.params:
                ps.shadow = _quantize(Tensor(ps.master), ctx,
                                      layer.layer_class, "weight").data

    def zero_grads(self):
        for ps in self.param_sets():
            for _, _, grad in ps.arrays():
                grad[...] = 0

    # -- execution --------------------------------------------------------

    def forward(self, x: np.ndarray, train: bool = True,
                step_rng: RngStream | None = None):
        """Returns the float32 output and the tape for `backward`."""
        tape = Tape()
        return self._run(x, _Ctx(self.policy, train, step_rng), tape), tape

    def infer(self, x: np.ndarray) -> np.ndarray:
        """The output of ``forward(x, train=False)``, bit for bit, from a
        pass that keeps nothing for `backward`."""
        return self._run(x, _Ctx(self.policy), Tape(record=False))

    def _run(self, x: np.ndarray, ctx: _Ctx, tape: Tape) -> np.ndarray:
        out = Tensor(_batch_last(x))
        if self.layers:
            out = _quantize(out, ctx, self.layers[0].layer_class, "act")
        for i, layer in enumerate(self.layers):
            out = _quantize(layer.forward(out, ctx, tape), ctx,
                            layer.layer_class, "act")
            keep = tape.record or i in self._skip_sources
            tape.outputs.append(out if keep else None)
        return _nchw(out.data)

    def backward(self, tape: Tape, dy: np.ndarray,
                 stats: QuantStats | None = None,
                 input_grad: bool = True) -> np.ndarray | None:
        """Accumulates parameter gradients; returns the float32 input
        gradient, or None without ``input_grad``, which lets the first
        layer skip computing it.  Error gradients zeroed by quantization
        go to ``stats``."""
        if tape.consumed:
            raise RuntimeError("tape already consumed by a backward pass")
        tape.consumed = True
        grad = Tensor(_batch_last(dy))
        if tape.outputs and grad.shape != tape.outputs[-1].shape:
            raise ShapeError(f"dy shape {dy.shape} != output shape "
                             f"{_nchw(tape.outputs[-1].data).shape}")
        ctx = _Ctx(self.policy, stats=stats)
        pending: dict[int, np.ndarray] = {}
        selected = False
        for i in range(len(self.layers) - 1, -1, -1):
            if i in pending:
                grad = Tensor(grad.data + pending.pop(i))
            layer = self.layers[i]
            grad = _quantize(grad, ctx, layer.layer_class, "err", selected)
            grad = layer.backward(grad, ctx, tape.caches[i],
                                  input_grad or i > 0)
            selected = layer.selects
            if isinstance(layer, _EltwiseAddLayer):
                src = layer.spec.source
                pending[src] = pending.get(src, 0) + grad.data
        return _nchw(grad.data) if input_grad else None


def build_network(specs, policy: QuantPolicy, rng: RngStream) -> Network:
    """Instantiate layers with deterministic per-layer init streams."""
    layers = []
    for i, spec in enumerate(specs):
        try:
            cls = _LAYER_TYPES[type(spec)]
        except KeyError:
            raise ValueError(f"unknown layer spec {spec!r}") from None
        layers.append(cls(i, spec, rng.child(i)))
    return Network(layers, policy)
