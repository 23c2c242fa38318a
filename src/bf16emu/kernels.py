"""Forward/backward compute primitives with widened accumulation.

Every kernel consumes FP32 arrays (possibly tagged as exactly
representable in a 16-bit format) and accumulates in FP32.  Quantization
happens at operator boundaries, decided by the caller; kernels know
nothing about the policy and trust the tags they are given.

Reduction order is explicit (`GemmAccumOrder`) so results are
bit-reproducible.  The GEMM never calls BLAS, whose blocked sums take
another order.  It adds one k step at a time into an FP32 accumulator,
either as one NumPy call per step or, for small outputs, as one
``np.add.reduce`` over the leading axis of a chunk of products: NumPy
adds the rows of a non-innermost axis one after another, elementwise,
so the order is the same.  A single output element (m*n == 1) would
make that axis the innermost loop, which NumPy sums pairwise, so it
stays on the per-step loop.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .tensor import RngStream, ShapeError, Tensor

__all__ = [
    "GemmAccumOrder",
    "ConvSpec",
    "BatchNormState",
    "ActivationKind",
    "PoolKind",
    "LstmWeights",
    "gemm",
    "bias_add",
    "conv2d_forward",
    "conv2d_backward",
    "batchnorm_forward",
    "batchnorm_backward",
    "activation_forward",
    "activation_backward",
    "pool_forward",
    "pool_backward",
    "dropout",
    "softmax_cross_entropy",
    "binary_log_loss",
    "lstm_cell_forward",
    "lstm_cell_backward",
]


class GemmAccumOrder(Enum):
    # Single ordered loop over k.
    SEQUENTIAL_K = "sequential"
    # Adjacent product pairs are summed before touching the accumulator,
    # mimicking a 2-wide dot-product unit with FP32 accumulation.
    PAIRED_K = "paired"


# Shapes with 2 <= m*n <= _CHUNKED_MAX_MN and k > 1 take the chunked path
# of _gemm; _CHUNK_ELEMS bounds its buffer, (1 + kc) * m * n elements.
# The switch point is measured: at m*n = 16384, the LSTM hidden projection
# (128, 32, 128) took 0.83 ms chunked against 0.73 ms on the loop in one
# measurement and 0.58 against 0.61 ms in another; from 32768 up the loop
# was faster on every shape tried.
_CHUNKED_MAX_MN = 8192
_CHUNK_ELEMS = 1 << 18


def _gemm(a: np.ndarray, b: np.ndarray,
          order: GemmAccumOrder = GemmAccumOrder.SEQUENTIAL_K) -> np.ndarray:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"gemm shapes incompatible: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    acc = np.zeros((m, n), np.float32)
    if 2 <= m * n <= _CHUNKED_MAX_MN and k > 1:
        _gemm_chunked(a, b, order, acc)
        return acc
    tmp = np.empty((m, n), np.float32)
    if order is GemmAccumOrder.SEQUENTIAL_K:
        for j in range(k):
            np.multiply(a[:, j, None], b[j, None, :], out=tmp)
            acc += tmp
    else:
        tmp2 = np.empty((m, n), np.float32)
        for j in range(0, k - 1, 2):
            np.multiply(a[:, j, None], b[j, None, :], out=tmp)
            np.multiply(a[:, j + 1, None], b[j + 1, None, :], out=tmp2)
            tmp += tmp2
            acc += tmp
        if k % 2:
            np.multiply(a[:, k - 1, None], b[k - 1, None, :], out=tmp)
            acc += tmp
    return acc


def _gemm_chunked(a: np.ndarray, b: np.ndarray, order: GemmAccumOrder,
                  acc: np.ndarray) -> None:
    """The loop of _gemm, one NumPy reduction per chunk of k steps.

    Row 0 of ``buf`` holds the running sum and rows 1.. the addends of
    the chunk (products, or pair sums under PAIRED_K).  Reducing the
    leading axis adds them to row 0 one row at a time, elementwise over
    the contiguous m*n inner loop, so every output element sees the same
    FP32 additions in the same order as in the loop.  That holds only
    while the reduced axis is not NumPy's inner loop: with m*n == 1 it
    is, and NumPy then sums it pairwise, as row 0 plus the pairwise sum
    of the rest, which changed the bits for every such shape tried with
    k >= 7.  Those shapes, k == 1 and large outputs stay on the loop.
    """
    m, k = a.shape
    n = b.shape[1]
    paired = order is GemmAccumOrder.PAIRED_K
    steps = k - k % 2 if paired else k
    # m*n <= _CHUNKED_MAX_MN keeps the even chunk length at 32 or more.
    kc = min((_CHUNK_ELEMS // (m * n)) & ~1, steps)
    buf = np.empty((1 + (kc // 2 if paired else kc), m, n), np.float32)
    prod = np.empty((kc, m, n), np.float32) if paired else buf[1:]
    for j in range(0, steps, kc):
        c = min(kc, steps - j)
        np.multiply(a[:, j:j + c].T[:, :, None], b[j:j + c, None, :],
                    out=prod[:c])
        if paired:
            c //= 2
            np.add(prod[0:2 * c:2], prod[1:2 * c:2], out=buf[1:1 + c])
        buf[0] = acc
        np.add.reduce(buf[:1 + c], axis=0, out=acc)
    if steps < k:
        acc += a[:, k - 1, None] * b[k - 1, None, :]


def gemm(a: Tensor, b: Tensor,
         order: GemmAccumOrder = GemmAccumOrder.SEQUENTIAL_K) -> Tensor:
    """C[m,n] = ordered FP32 sum over k of a[m,k] * b[k,n]; output FP32."""
    return Tensor(_gemm(a.data, b.data, order))


def bias_add(c: Tensor, bias: Tensor) -> Tensor:
    """FP32 broadcast add of a bias vector, before any output quantization.

    2-D inputs take the bias along the last axis; 4-D (N,C,H,W) inputs
    take it along the channel axis.
    """
    b = bias.data.reshape(-1)
    if c.data.ndim == 4:
        if b.shape[0] != c.shape[1]:
            raise ShapeError(
                f"bias length {b.shape[0]} != channels {c.shape[1]}")
        return Tensor(c.data + b[None, :, None, None])
    if b.shape[0] != c.shape[-1]:
        raise ShapeError(
            f"bias length {b.shape[0]} != last extent {c.shape[-1]}")
    return Tensor(c.data + b)


# ---------------------------------------------------------------------------
# convolution (im2col based)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConvSpec:
    kh: int
    kw: int
    stride: int = 1
    pad: int = 0
    in_channels: int = 1
    out_channels: int = 1

    def out_extent(self, size: int, axis_k: int) -> int:
        out = (size + 2 * self.pad - axis_k) // self.stride + 1
        if out < 1:
            raise ShapeError(f"conv output extent {out} < 1")
        return out


def _im2col(x: np.ndarray, spec: ConvSpec) -> np.ndarray:
    n, c, h, w = x.shape
    ho = spec.out_extent(h, spec.kh)
    wo = spec.out_extent(w, spec.kw)
    xp = np.pad(x, ((0, 0), (0, 0), (spec.pad, spec.pad),
                    (spec.pad, spec.pad)))
    cols = np.empty((n, c, spec.kh, spec.kw, ho, wo), np.float32)
    s = spec.stride
    for u in range(spec.kh):
        for v in range(spec.kw):
            cols[:, :, u, v] = xp[:, :, u:u + ho * s:s, v:v + wo * s:s]
    return cols.transpose(0, 4, 5, 1, 2, 3).reshape(n * ho * wo,
                                                    c * spec.kh * spec.kw)


def _col2im(cols: np.ndarray, x_shape, spec: ConvSpec) -> np.ndarray:
    n, c, h, w = x_shape
    ho = spec.out_extent(h, spec.kh)
    wo = spec.out_extent(w, spec.kw)
    s = spec.stride
    xp = np.zeros((n, c, h + 2 * spec.pad, w + 2 * spec.pad), np.float32)
    cols6 = cols.reshape(n, ho, wo, c, spec.kh, spec.kw).transpose(
        0, 3, 4, 5, 1, 2)
    for u in range(spec.kh):
        for v in range(spec.kw):
            xp[:, :, u:u + ho * s:s, v:v + wo * s:s] += cols6[:, :, u, v]
    if spec.pad:
        return xp[:, :, spec.pad:spec.pad + h, spec.pad:spec.pad + w].copy()
    return xp


def _check_conv(x: Tensor, w: Tensor, spec: ConvSpec):
    if x.data.ndim != 4 or w.data.ndim != 4:
        raise ShapeError("conv expects NCHW input and FCkhkw weights")
    n, c, h, wd = x.shape
    f, cw, kh, kw = w.shape
    if (c, f, kh, kw) != (spec.in_channels, spec.out_channels,
                          spec.kh, spec.kw) or cw != c:
        raise ShapeError(f"conv spec {spec} inconsistent with shapes "
                         f"{x.shape} / {w.shape}")


def conv2d_forward(x: Tensor, w: Tensor, spec: ConvSpec,
                   order: GemmAccumOrder = GemmAccumOrder.SEQUENTIAL_K) -> Tensor:
    """NCHW convolution as im2col followed by gemm (bit-exactly)."""
    _check_conv(x, w, spec)
    n, _, h, wd = x.shape
    ho = spec.out_extent(h, spec.kh)
    wo = spec.out_extent(wd, spec.kw)
    cols = _im2col(x.data, spec)
    wmat = w.data.reshape(spec.out_channels, -1)
    out = _gemm(cols, wmat.T, order)
    return Tensor(out.reshape(n, ho, wo, spec.out_channels)
                  .transpose(0, 3, 1, 2).copy())


def conv2d_backward(x: Tensor, w: Tensor, dy: Tensor, spec: ConvSpec,
                    order: GemmAccumOrder = GemmAccumOrder.SEQUENTIAL_K):
    """Returns (dx, dw), both FP32."""
    _check_conv(x, w, spec)
    n, _, h, wd = x.shape
    ho = spec.out_extent(h, spec.kh)
    wo = spec.out_extent(wd, spec.kw)
    if dy.shape != (n, spec.out_channels, ho, wo):
        raise ShapeError(f"conv dy shape {dy.shape} != "
                         f"{(n, spec.out_channels, ho, wo)}")
    dy_mat = dy.data.transpose(0, 2, 3, 1).reshape(n * ho * wo,
                                                   spec.out_channels)
    wmat = w.data.reshape(spec.out_channels, -1)
    cols = _im2col(x.data, spec)
    dcols = _gemm(dy_mat, wmat, order)
    dx = _col2im(dcols, x.shape, spec)
    dw = _gemm(dy_mat.T, cols, order).reshape(w.shape)
    return Tensor(dx), Tensor(dw)


# ---------------------------------------------------------------------------
# batch normalization (biased batch variance, per-channel)
# ---------------------------------------------------------------------------


@dataclass
class BatchNormState:
    gamma: np.ndarray
    beta: np.ndarray
    eps: float = 1e-5
    saved_mean: np.ndarray | None = None
    saved_var: np.ndarray | None = None

    def __post_init__(self):
        self.gamma = np.ascontiguousarray(self.gamma, np.float32)
        self.beta = np.ascontiguousarray(self.beta, np.float32)
        if self.eps <= 0:
            raise ValueError("batchnorm eps must be positive")


def _bn_axes(x: np.ndarray):
    if x.ndim == 2:
        return (0,), x.shape[0], (lambda v: v)
    if x.ndim == 4:
        return (0, 2, 3), x.shape[0] * x.shape[2] * x.shape[3], \
            (lambda v: v[None, :, None, None])
    raise ShapeError("batchnorm expects (N,C) or (N,C,H,W)")


def batchnorm_forward(x: Tensor, state: BatchNormState):
    axes, count, expand = _bn_axes(x.data)
    if count < 2:
        raise ShapeError("batchnorm needs at least 2 samples per channel")
    mean = x.data.mean(axis=axes, dtype=np.float32)
    var = x.data.var(axis=axes, dtype=np.float32)
    state.saved_mean = mean
    state.saved_var = var
    inv_std = (1.0 / np.sqrt(var + np.float32(state.eps))).astype(np.float32)
    xhat = (x.data - expand(mean)) * expand(inv_std)
    y = xhat * expand(state.gamma) + expand(state.beta)
    cache = (x.data, xhat, inv_std, expand, axes, count)
    return Tensor(y.astype(np.float32)), cache


def batchnorm_backward(dy: Tensor, state: BatchNormState, cache):
    x, xhat, inv_std, expand, axes, count = cache
    if dy.data.shape != x.shape:
        raise ShapeError(f"batchnorm dy shape {dy.shape} != {x.shape}")
    g = dy.data
    dgamma = (g * xhat).sum(axis=axes, dtype=np.float32)
    dbeta = g.sum(axis=axes, dtype=np.float32)
    m = np.float32(count)
    dxhat = g * expand(state.gamma)
    term = (dxhat - expand(dxhat.sum(axis=axes, dtype=np.float32)) / m
            - xhat * expand((dxhat * xhat).sum(axis=axes, dtype=np.float32)) / m)
    dx = term * expand(inv_std)
    return Tensor(dx.astype(np.float32)), dgamma.astype(np.float32), \
        dbeta.astype(np.float32)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


class ActivationKind(Enum):
    RELU = "relu"
    LEAKY_RELU = "leaky_relu"
    SIGMOID = "sigmoid"
    TANH = "tanh"


def activation_forward(kind: ActivationKind, x: Tensor,
                       alpha: float = 0.01) -> Tensor:
    v = x.data
    if kind is ActivationKind.RELU:
        return Tensor(np.maximum(v, np.float32(0)))
    if kind is ActivationKind.LEAKY_RELU:
        return Tensor(np.where(v > 0, v, np.float32(alpha) * v))
    if kind is ActivationKind.SIGMOID:
        return Tensor((1.0 / (1.0 + np.exp(-v.astype(np.float32)))).astype(np.float32))
    if kind is ActivationKind.TANH:
        return Tensor(np.tanh(v).astype(np.float32))
    raise ValueError(f"unknown activation {kind}")


def activation_backward(kind: ActivationKind, x: Tensor, dy: Tensor,
                        alpha: float = 0.01) -> Tensor:
    if x.shape != dy.shape:
        raise ShapeError("activation backward shape mismatch")
    v = x.data
    g = dy.data
    if kind is ActivationKind.RELU:
        return Tensor(np.where(v > 0, g, np.float32(0)))
    if kind is ActivationKind.LEAKY_RELU:
        return Tensor(np.where(v > 0, g, np.float32(alpha) * g))
    if kind is ActivationKind.SIGMOID:
        s = activation_forward(kind, x).data
        return Tensor(g * s * (np.float32(1) - s))
    if kind is ActivationKind.TANH:
        t = np.tanh(v).astype(np.float32)
        return Tensor(g * (np.float32(1) - t * t))
    raise ValueError(f"unknown activation {kind}")


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


class PoolKind(Enum):
    MAX = "max"
    AVG = "avg"


def _pool_windows(x: np.ndarray, window: int, stride: int):
    n, c, h, w = x.shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    if ho < 1 or wo < 1:
        raise ShapeError("pool window larger than input")
    wins = np.empty((n, c, ho, wo, window * window), np.float32)
    for u in range(window):
        for v in range(window):
            wins[..., u * window + v] = \
                x[:, :, u:u + ho * stride:stride, v:v + wo * stride:stride]
    return wins, ho, wo


def pool_forward(kind: PoolKind, x: Tensor, window: int, stride: int):
    """Returns (y, cache); max pooling records first row-major winner."""
    wins, ho, wo = _pool_windows(x.data, window, stride)
    if kind is PoolKind.MAX:
        arg = np.argmax(wins, axis=-1)
        y = np.take_along_axis(wins, arg[..., None], axis=-1)[..., 0]
        cache = (kind, x.shape, window, stride, arg)
    else:
        y = wins.mean(axis=-1, dtype=np.float32)
        cache = (kind, x.shape, window, stride, None)
    return Tensor(y.astype(np.float32)), cache


def pool_backward(kind: PoolKind, dy: Tensor, cache) -> Tensor:
    ckind, x_shape, window, stride, arg = cache
    if kind is not ckind:
        raise ShapeError("pool kind does not match cache")
    n, c, h, w = x_shape
    ho = (h - window) // stride + 1
    wo = (w - window) // stride + 1
    if dy.shape != (n, c, ho, wo):
        raise ShapeError(f"pool dy shape {dy.shape} != {(n, c, ho, wo)}")
    dx = np.zeros(x_shape, np.float32)
    if kind is PoolKind.MAX:
        for p in range(window * window):
            u, v = divmod(p, window)
            contrib = np.where(arg == p, dy.data, np.float32(0))
            dx[:, :, u:u + ho * stride:stride,
               v:v + wo * stride:stride] += contrib
    else:
        share = (dy.data / np.float32(window * window)).astype(np.float32)
        for p in range(window * window):
            u, v = divmod(p, window)
            dx[:, :, u:u + ho * stride:stride,
               v:v + wo * stride:stride] += share
    return Tensor(dx)


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def dropout(x: Tensor, p: float, rng: RngStream):
    """Inverted dropout; returns (y, mask).  Deterministic per stream."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must satisfy 0 <= p < 1")
    if p == 0.0:
        return x.copy(), np.ones(x.shape, np.float32)
    keep = (rng.generator().random(x.shape) >= p).astype(np.float32)
    scale = np.float32(1.0 / (1.0 - p))
    return Tensor(x.data * keep * scale), keep


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels):
    """Mean cross entropy over the batch, stabilized by max subtraction.

    Returns (loss, dlogits) with dlogits = (softmax - onehot) / N.
    """
    z = logits.data
    if z.ndim != 2:
        raise ShapeError("softmax expects (N, C) logits")
    n, c = z.shape
    labels = np.asarray(labels, np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label index out of range")
    shifted = z - z.max(axis=1, keepdims=True)
    expz = np.exp(shifted.astype(np.float32))
    probs = (expz / expz.sum(axis=1, keepdims=True, dtype=np.float32))
    logp = shifted - np.log(expz.sum(axis=1, keepdims=True,
                                     dtype=np.float32))
    loss = float(-logp[np.arange(n), labels].mean(dtype=np.float32))
    d = probs.astype(np.float32)
    d[np.arange(n), labels] -= np.float32(1)
    d /= np.float32(n)
    return loss, Tensor(d)


def binary_log_loss(p, y) -> float:
    """Mean negative log likelihood with probabilities clamped to
    [1e-7, 1 - 1e-7]."""
    p = np.clip(np.asarray(p, np.float32).reshape(-1), 1e-7, 1.0 - 1e-7)
    y = np.asarray(y, np.float32).reshape(-1)
    if p.shape != y.shape:
        raise ShapeError("log loss inputs differ in length")
    return float(-(y * np.log(p) + (1.0 - y) * np.log(1.0 - p)).mean())


# ---------------------------------------------------------------------------
# LSTM cell (fused; gates i, f, g, o)
# ---------------------------------------------------------------------------


@dataclass
class LstmWeights:
    """Gate weights stacked as [i; f; g; o] along the first axis."""

    w_ih: Tensor  # (4H, I)
    w_hh: Tensor  # (4H, H)
    bias: Tensor  # (4H,)


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return (1.0 / (1.0 + np.exp(-v.astype(np.float32)))).astype(np.float32)


def lstm_cell_forward(x: Tensor, h_prev: Tensor, c_prev: Tensor,
                      weights: LstmWeights,
                      order: GemmAccumOrder = GemmAccumOrder.SEQUENTIAL_K):
    """One LSTM step; the cell state stays FP32 throughout.

    Gate pre-activations are computed by gemm on ``x``, ``h_prev`` and
    the weights as given (the caller quantizes them); bias is added in
    FP32.  Returns (h, c, cache).
    """
    n, isz = x.shape
    hsz = h_prev.shape[1]
    if weights.w_ih.shape != (4 * hsz, isz) or \
            weights.w_hh.shape != (4 * hsz, hsz) or \
            weights.bias.shape != (4 * hsz,) or c_prev.shape != (n, hsz):
        raise ShapeError("lstm cell shapes inconsistent")
    pre = (_gemm(x.data, weights.w_ih.data.T, order)
           + _gemm(h_prev.data, weights.w_hh.data.T, order))
    pre = pre + weights.bias.data
    i = _sigmoid(pre[:, :hsz])
    f = _sigmoid(pre[:, hsz:2 * hsz])
    g = np.tanh(pre[:, 2 * hsz:3 * hsz]).astype(np.float32)
    o = _sigmoid(pre[:, 3 * hsz:])
    c = f * c_prev.data + i * g
    h = o * np.tanh(c).astype(np.float32)
    cache = dict(xq=x, hq=h_prev, wi=weights.w_ih, wh=weights.w_hh,
                 c_prev=c_prev.data, i=i, f=f, g=g, o=o, c=c, order=order)
    return Tensor(h), Tensor(c), cache


def lstm_cell_backward(dh: Tensor, dc: Tensor, cache,
                       quantize_dpre: Callable[[Tensor], Tensor] | None = None):
    """Gradients of one LSTM step.

    Returns (dx, dh_prev, dc_prev, dw_ih, dw_hh, dbias); weight grads FP32.
    ``quantize_dpre``, when given, maps the gate-preactivation error
    gradient to what enters the backward gemms.
    """
    i, f, g, o, c = (cache[k] for k in ("i", "f", "g", "o", "c"))
    order = cache["order"]
    tc = np.tanh(c).astype(np.float32)
    do = dh.data * tc
    dc_total = dc.data + dh.data * o * (np.float32(1) - tc * tc)
    di = dc_total * g
    df = dc_total * cache["c_prev"]
    dg = dc_total * i
    dc_prev = dc_total * f
    one = np.float32(1)
    dpre = np.concatenate([
        di * i * (one - i),
        df * f * (one - f),
        dg * (one - g * g),
        do * o * (one - o),
    ], axis=1).astype(np.float32)
    if quantize_dpre is not None:
        dpre = quantize_dpre(Tensor(dpre)).data
    dx = _gemm(dpre, cache["wi"].data, order)
    dh_prev = _gemm(dpre, cache["wh"].data, order)
    dw_ih = _gemm(dpre.T, cache["xq"].data, order)
    dw_hh = _gemm(dpre.T, cache["hq"].data, order)
    dbias = dpre.sum(axis=0, dtype=np.float32)
    return (Tensor(dx), Tensor(dh_prev), Tensor(dc_prev), Tensor(dw_ih),
            Tensor(dw_hh), Tensor(dbias))
