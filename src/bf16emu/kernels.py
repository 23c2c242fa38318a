"""Forward/backward compute primitives with widened accumulation.

Every kernel takes plain float32 NumPy arrays, returns arrays (a loss
also returns its value as a float) and accumulates in FP32.  No kernel
re-casts its inputs or results to float32: NumPy keeps float32 arrays
float32 through float32 operands and Python scalars, so the caller's
dtype is the contract (only the dropout mask is cast, from bool).
Which of those arrays hold values exact in a 16-bit format, and where
they are rounded, is decided by the network around the kernels; no
kernel quantizes, and none knows the policy.  So the LSTM cell is gate
arithmetic alone: the layer around it runs its GEMMs and quantizes the
hidden state and the gate gradients between them.

Reduction order is fixed so results are bit-reproducible.  The GEMM
never calls BLAS, whose blocked sums take another order.  It adds one k
step at a time, in increasing k, into an FP32 accumulator started at +0,
each product rounded to FP32 before its add.  One ``np.einsum`` call
runs that order (``_gemm``).  einsum runs one nditer over the output
axes plus the summed axis j, ordered by stride.  ``_gemm`` copies both
operands k-major, as a^T (k, m) and b (k, n), so j has the largest
stride in both operands and stride 0 in the output: j is the outer loop,
in increasing order, and the inner loop runs along the output's last
axis as ``out[i] += x * y[i]``, a multiply and an add each rounded (a
probe built to expose a fused multiply-add reads the rounded result).
With j as the inner loop, as on a strided view such as b = W.T, einsum
sums j in SIMD partial sums, in another order.  ``optimize`` must stay
False: True routes the contraction through ``tensordot`` and BLAS.

Two cases run the per-k loop instead, one NumPy multiply and add per k
step (``_gemm_loop``).  A single output element (m*n == 1) leaves j as
einsum's only loop, so it would take the partial sums.  And an output
holding a NaN is rebuilt on the loop, whose NaN payloads then stand:
where two NaNs meet, the payload that survives depends on where the
element falls in NumPy's SIMD lanes, so the rebuild keeps the loop's own
orientation rule (below), and with it the loop's payloads.
Without subnormals, x86's ``VDPBF16PS`` gives the same bits as this
order run over k with each adjacent pair of steps swapped
(``tests/test_hardware.py``).

NumPy pays a fixed cost per row of its inner loop, which runs along the
output's last axis.  A tall, thin output (n < m) therefore pays for m
short rows at every k step.  ``_gemm`` then builds the transposed output
instead and copies it back once, so the rows run along m.  Each output
element still sums the same FP32 products in increasing k from +0, so
the bits do not change; only the layout NumPy loops over does.  The
loop swaps where 1 < n < m and n <= 4k.  einsum swaps there too, but
only up to n = 64: past that, copying the result back cost more than
the row starts it saved.  Both rules are constants on the shape
(``_gemm``).  A convolution's forward and dx GEMMs run their output
rows along the Ho*Wo*N output pixels of the whole batch, so they need
no swap.

Convolution and pooling take and return batch-last (C, H, W, N) arrays;
the network converts NCHW at its boundary.  So their copies, adds and
selections run along rows that hold the whole batch: in NCHW, a row of
an 8x8 or 4x4 image holds 8 or 4 pixels, and NumPy's fixed cost per row
would dominate.  The forward and dx GEMMs have a column per output pixel
in (i, j, n) order.  ``_im2col`` fills the (C*k*k, Ho*Wo*N) window
matrix with one slice copy per kernel offset (u, v), from x or from one
zero-padded copy, and the forward's (F, Ho*Wo*N) result is its output
as it stands, plus the bias.  ``_col2im`` adds the (u, v) windows back
into a +0 (C, H+2p, W+2p, N) image one offset at a time, so each pixel
sees its contributions in that fixed order, then crops it.  dw's GEMM
sums over the output pixels: its k order is the summation order, so it
stays (n, i, j), the order of an NCHW lowering.  Its k-major operands
are one (N*Ho*Wo, F) copy of dy and one strided (N*Ho*Wo, k*k*C) view
of a padded NHWC copy of x, with columns in (u, v, c) order; the small
(F, k, k, C) result is transposed back to (F, C, k, k).  Moving a GEMM's
output columns changes neither the products an output element sums nor
their k order, so the bits are those of the NCHW lowering, except a
NaN's payload, which can depend on where its element falls in a row.

Pooling tiles the image with non-overlapping windows: pixel (u, v) of
every tile is one strided view ``x[:, u::k, v::k]``, cut to the tiles,
so the border they miss is dropped.  Each pixel lies in at most one
window, so pooling's backward writes its one share in place and sums
nothing; avg pooling adds each tile into +0 in row-major order.
It does not go through ``_im2col``/``_col2im``, so a trace that wraps
those names times convolution alone.  ``conv2d_backward`` skips dx, its
GEMM and ``_col2im``, for a caller that has no use for it.

ReLU's backward and max pooling select values with bit masks
(``_mask``), not with ``np.where`` or ``np.argmax``: NumPy's select
branches per element, which is slow on a random mask.  Their results
are elements of their inputs, bit for bit, or +0.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .tensor import RngStream, ShapeError

__all__ = [
    "PoolKind",
    "conv2d_forward",
    "conv2d_backward",
    "batchnorm_forward",
    "batchnorm_backward",
    "relu_forward",
    "relu_backward",
    "pool_forward",
    "pool_backward",
    "dropout",
    "softmax_cross_entropy",
    "binary_log_loss",
    "lstm_cell_forward",
    "lstm_cell_backward",
]


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"gemm shapes incompatible: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    # Both operands k-major, so that j has the largest stride in each and
    # is einsum's outer loop; b = W.T passed as a view makes it the inner
    # one, summed in SIMD partial sums.
    at = np.ascontiguousarray(a.T)
    bk = np.ascontiguousarray(b)
    # The loop's orientation, on which NaN payloads depend: a tall, thin
    # output is built transposed.
    tall = 1 < n < m and n <= 4 * k
    # A single output element would make j einsum's only loop, which it
    # reduces in SIMD partial sums.
    if m * n > 1:
        # The transposed output pays n row starts per k step, not m, and
        # a copy of the result.  Against rows, at m = 128-2048 and
        # n <= 4k, it took 0.31-0.99x the time up to n = 64, though
        # 0.8-1.7x from run to run at (2048, 16-32, 64); from n = 80 it
        # saved at most 25% and lost up to 1.7x, at m = 2048.
        if tall and n <= 64:
            out = np.ascontiguousarray(np.einsum("jq,jp->qp", bk, at).T)
        else:
            out = np.einsum("jp,jq->pq", at, bk)
        if not np.isnan(out).any():
            return out
    return _gemm_loop(at, bk, tall)


def _gemm_loop(at: np.ndarray, bk: np.ndarray, tall: bool) -> np.ndarray:
    """a @ b one NumPy multiply and add per k step, in increasing k, from
    +0, with a's element as the first factor; ``at`` is a^T and ``bk`` b,
    both C-contiguous.  With ``tall`` it builds the transposed output."""
    if tall:
        x, y = at[:, None, :], bk[:, :, None]
    else:
        x, y = at[:, :, None], bk[:, None, :]
    acc = np.zeros(np.broadcast_shapes(x.shape[1:], y.shape[1:]), np.float32)
    tmp = np.empty_like(acc)
    for j in range(at.shape[0]):
        np.multiply(x[j], y[j], out=tmp)
        acc += tmp
    return np.ascontiguousarray(acc.T) if tall else acc


# ---------------------------------------------------------------------------
# convolution (im2col based, batch-last)
# ---------------------------------------------------------------------------


def _out_extent(size: int, k: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ShapeError(f"conv output extent {out} < 1")
    return out


def _im2col(x: np.ndarray, k: int, stride: int, pad: int,
            transposed: bool = False) -> np.ndarray:
    """Window matrix of the batch-last (C, H, W, N) image x, laid out for
    one of conv's GEMMs.

    Without ``transposed``: (N*Ho*Wo, k*k*C), a row per output pixel
    (n, i, j) and a column per (u, v, c), so dw's GEMM sums down the rows
    in (n, i, j) order.  With ``transposed``: (C*k*k, Ho*Wo*N), a row per
    (c, u, v) and a column per output pixel (i, j, n), for the forward's
    GEMM."""
    c, h, w, n = x.shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(w, k, stride, pad)
    p, s = pad, stride
    if transposed:
        # One padded copy, then one slice copy per (u, v), each along
        # rows holding the whole batch.
        xp = np.zeros((c, h + 2 * p, w + 2 * p, n), np.float32)
        xp[:, p:p + h, p:p + w] = x
        cols = np.empty((c, k, k, ho, wo, n), np.float32)
        for u in range(k):
            for v in range(k):
                cols[:, u, v] = xp[:, u:u + ho * s:s, v:v + wo * s:s]
        return cols.reshape(c * k * k, ho * wo * n)
    # One padded (N, H+2p, W+2p, C) copy, whose windows are a strided
    # (N, Ho, Wo, k, k, C) view; the reshape copies it once.
    xp = np.zeros((n, h + 2 * p, w + 2 * p, c), np.float32)
    xp[:, p:p + h, p:p + w] = x.transpose(3, 1, 2, 0)
    wins = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    return wins.transpose(0, 1, 2, 4, 5, 3).reshape(n * ho * wo, k * k * c)


def _col2im(cols_t: np.ndarray, x_shape, k: int, stride: int,
            pad: int) -> np.ndarray:
    """Adjoint of the transposed _im2col: adds the windows of cols_t
    (C*k*k, Ho*Wo*N) into a +0 (C, H+2p, W+2p, N) image one (u, v) offset
    at a time, so each pixel sees its contributions in that fixed order,
    then drops the padding."""
    c, h, w, n = x_shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(w, k, stride, pad)
    wins = cols_t.reshape(c, k, k, ho, wo, n)
    p, s = pad, stride
    xp = np.zeros((c, h + 2 * p, w + 2 * p, n), np.float32)
    for u in range(k):
        for v in range(k):
            xp[:, u:u + ho * s:s, v:v + wo * s:s] += wins[:, u, v]
    return np.ascontiguousarray(xp[:, p:p + h, p:p + w])


def _check_conv(x: np.ndarray, w: np.ndarray) -> tuple[int, int]:
    """Returns (output channels, kernel size) of a square-kernel conv."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv expects CHWN input and FCkhkw weights")
    f, c, kh, kw = w.shape
    if kh != kw or x.shape[0] != c:
        raise ShapeError(f"conv weights {w.shape} do not fit input "
                         f"{x.shape}: need C to match and a square kernel")
    return f, kh


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int = 1,
                   pad: int = 0, bias: np.ndarray | None = None
                   ) -> np.ndarray:
    """Batch-last (C, H, W, N) convolution as im2col followed by gemm
    (bit-exactly), plus ``bias[f]`` on output channel f when given;
    returns (F, Ho, Wo, N)."""
    f, k = _check_conv(x, w)
    _, h, wd, n = x.shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(wd, k, stride, pad)
    # (F, C*k*k) x (C*k*k, Ho*Wo*N): rows run along Ho*Wo*N.
    out = _gemm(w.reshape(f, -1), _im2col(x, k, stride, pad, transposed=True))
    out = out.reshape(f, ho, wo, n)
    if bias is not None:
        out += bias[:, None, None, None]
    return out


def conv2d_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray,
                    stride: int = 1, pad: int = 0, input_grad: bool = True):
    """Returns (dx, dw), both FP32, for batch-last x and dy; dx is None
    unless ``input_grad``."""
    f, k = _check_conv(x, w)
    c, h, wd, n = x.shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(wd, k, stride, pad)
    if dy.shape != (f, ho, wo, n):
        raise ShapeError(f"conv dy shape {dy.shape} != {(f, ho, wo, n)}")
    dx = None
    if input_grad:
        # dy is (F, Ho*Wo*N) as it stands: the rows of dx's GEMM run
        # along Ho*Wo*N.
        dx = _col2im(_gemm(w.reshape(f, -1).T, dy.reshape(f, -1)), x.shape,
                     k, stride, pad)
    # dw's long k runs over (n, i, j), down the window matrix; its
    # k-major operand is one (N*Ho*Wo, F) copy of dy, which _gemm takes
    # as it is.
    dy_k = np.ascontiguousarray(dy.transpose(3, 1, 2, 0)).reshape(-1, f)
    dw = _gemm(dy_k.T, _im2col(x, k, stride, pad))
    return dx, dw.reshape(f, k, k, c).transpose(0, 3, 1, 2).copy()


# ---------------------------------------------------------------------------
# batch normalization (biased batch variance, per-channel)
# ---------------------------------------------------------------------------


def _bn_axes(x: np.ndarray):
    if x.ndim == 2:
        return (0,), x.shape[0], (lambda v: v)
    if x.ndim == 4:
        return (0, 2, 3), x.shape[0] * x.shape[2] * x.shape[3], \
            (lambda v: v[None, :, None, None])
    raise ShapeError("batchnorm expects (N,C) or (N,C,H,W)")


def batchnorm_forward(x: np.ndarray, gamma: np.ndarray, beta: np.ndarray,
                      eps: float):
    """Returns (y, cache); gamma and beta are per-channel scale and shift."""
    axes, count, expand = _bn_axes(x)
    if count < 2:
        raise ShapeError("batchnorm needs at least 2 samples per channel")
    mean = x.mean(axis=axes, dtype=np.float32)
    var = x.var(axis=axes, dtype=np.float32)
    inv_std = 1.0 / np.sqrt(var + np.float32(eps))
    xhat = (x - expand(mean)) * expand(inv_std)
    y = xhat * expand(gamma) + expand(beta)
    cache = (x, xhat, inv_std, expand, axes, count)
    return y, cache


def batchnorm_backward(dy: np.ndarray, gamma: np.ndarray, cache):
    """Returns (dx, dgamma, dbeta), all FP32."""
    x, xhat, inv_std, expand, axes, count = cache
    if dy.shape != x.shape:
        raise ShapeError(f"batchnorm dy shape {dy.shape} != {x.shape}")
    dgamma = (dy * xhat).sum(axis=axes, dtype=np.float32)
    dbeta = dy.sum(axis=axes, dtype=np.float32)
    m = np.float32(count)
    dxhat = dy * expand(gamma)
    term = (dxhat - expand(dxhat.sum(axis=axes, dtype=np.float32)) / m
            - xhat * expand((dxhat * xhat).sum(axis=axes, dtype=np.float32)) / m)
    dx = term * expand(inv_std)
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def _mask(keep: np.ndarray) -> np.ndarray:
    """uint32 all-ones where ``keep`` is true, all-zeros elsewhere."""
    m = keep.astype(np.uint32)
    np.negative(m, out=m)
    return m


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-v))


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, np.float32(0))


def relu_backward(x: np.ndarray, dy: np.ndarray) -> np.ndarray:
    if x.shape != dy.shape:
        raise ShapeError("relu backward shape mismatch")
    # np.where(x > 0, dy, +0) as a bit mask: on a random mask np.where
    # branches per element and took 13x as long.
    return (dy.view(np.uint32) & _mask(x > 0)).view(np.float32)


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------


class PoolKind(Enum):
    MAX = "max"
    AVG = "avg"


def _slots(a: np.ndarray, k: int) -> list[np.ndarray]:
    """The k*k strided (C, Ho, Wo, N) views of the batch-last image a:
    slot u*k + v holds pixel (u, v) of every k x k tile, so the slots run
    over each tile in row-major order.  The border the tiles miss is in
    none of them."""
    _, h, w, _ = a.shape
    ho = _out_extent(h, k, k, 0) * k
    wo = _out_extent(w, k, k, 0) * k
    return [a[:, u:ho:k, v:wo:k] for u in range(k) for v in range(k)]


def pool_forward(kind: PoolKind, x: np.ndarray, window: int):
    """Returns (y, cache) for batch-last x.  Max pooling picks, bit for
    bit, the element np.argmax would: the first row-major winner, or the
    first NaN.  Avg pooling adds each tile's elements into +0 in
    row-major order, then divides by window**2."""
    k = window
    slots = _slots(x, k)
    if kind is PoolKind.AVG:
        # One add per element of the tile: a reduction over the window
        # would not keep this order for 9 or more addends.
        acc = slots[0] + np.float32(0)
        for slot in slots[1:]:
            acc += slot
        acc /= np.float32(k * k)
        return acc, (kind, x.shape, k, None)
    best = slots[0].view(np.uint32).copy()
    arg = np.zeros(best.shape, np.min_scalar_type(len(slots) - 1))
    has_nan = bool(np.isnan(x).any())
    for p in range(1, len(slots)):
        cur = best.view(np.float32)
        take = slots[p] > cur
        if has_nan:
            take |= np.isnan(slots[p]) & ~np.isnan(cur)
        # Select p's bits where it wins; the passes run in increasing p,
        # so the winner's index is the largest p taken.
        best ^= (best ^ slots[p].view(np.uint32)) & _mask(take)
        np.maximum(arg, take * arg.dtype.type(p), out=arg)
    return best.view(np.float32), (kind, x.shape, k, arg)


def pool_backward(dy: np.ndarray, cache) -> np.ndarray:
    """Batch-last dx of pooling: each tile's max winner takes dy (the
    rest of the tile +0), or every pixel of the tile takes dy / window**2;
    the border the tiles miss is +0.  Each share is written in place as
    share + 0, so a -0 share reads +0."""
    kind, x_shape, k, arg = cache
    dx = np.zeros(x_shape, np.float32)
    slots = _slots(dx, k)
    if dy.shape != slots[0].shape:
        raise ShapeError(f"pool dy shape {dy.shape} != {slots[0].shape}")
    if kind is PoolKind.AVG:
        share = dy / np.float32(k * k) + np.float32(0)
        for slot in slots:
            slot[...] = share
        return dx
    src = (dy + np.float32(0)).view(np.uint32)
    for p, slot in enumerate(slots):
        np.bitwise_and(src, _mask(arg == p), out=slot.view(np.uint32))
    return dx


# ---------------------------------------------------------------------------
# dropout
# ---------------------------------------------------------------------------


def dropout(x: np.ndarray, p: float, rng: RngStream):
    """Inverted dropout; returns (y, mask).  Deterministic per stream."""
    if not 0.0 <= p < 1.0:
        raise ValueError("dropout probability must satisfy 0 <= p < 1")
    keep = (rng.generator().random(x.shape) >= p).astype(np.float32)
    scale = np.float32(1.0 / (1.0 - p))
    return x * keep * scale, keep


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------


def softmax_cross_entropy(z: np.ndarray, labels):
    """Mean cross entropy over the batch, stabilized by max subtraction.

    Returns (loss, dlogits) with dlogits = (softmax - onehot) / N.
    """
    if z.ndim != 2:
        raise ShapeError("softmax expects (N, C) logits")
    n, c = z.shape
    labels = np.asarray(labels, np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} != ({n},)")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError("label index out of range")
    shifted = z - z.max(axis=1, keepdims=True)
    expz = np.exp(shifted)
    probs = (expz / expz.sum(axis=1, keepdims=True, dtype=np.float32))
    logp = shifted - np.log(expz.sum(axis=1, keepdims=True,
                                     dtype=np.float32))
    loss = float(-logp[np.arange(n), labels].mean(dtype=np.float32))
    probs[np.arange(n), labels] -= np.float32(1)
    probs /= np.float32(n)
    return loss, probs


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


def lstm_cell_forward(pre: np.ndarray, c_prev: np.ndarray):
    """One LSTM step from the gate pre-activations ``pre`` (N, 4H).

    The caller computes ``pre`` with its GEMMs and bias; the cell state
    stays FP32 throughout.  Returns (h, c, cache), h and c of shape (N, H).
    """
    n, hsz = c_prev.shape
    if pre.shape != (n, 4 * hsz):
        raise ShapeError(f"lstm cell pre-activations {pre.shape} do not "
                         f"match cell state {c_prev.shape}")
    i = _sigmoid(pre[:, :hsz])
    f = _sigmoid(pre[:, hsz:2 * hsz])
    g = np.tanh(pre[:, 2 * hsz:3 * hsz])
    o = _sigmoid(pre[:, 3 * hsz:])
    c = f * c_prev + i * g
    h = o * np.tanh(c)
    return h, c, (c_prev, i, f, g, o, c)


def lstm_cell_backward(dh: np.ndarray, dc: np.ndarray, cache):
    """Gradients of one LSTM step with respect to its pre-activations
    and its incoming cell state.  Returns (dpre, dc_prev), both FP32."""
    c_prev, i, f, g, o, c = cache
    tc = np.tanh(c)
    do = dh * tc
    dc_total = dc + dh * o * (np.float32(1) - tc * tc)
    di = dc_total * g
    df = dc_total * c_prev
    dg = dc_total * i
    dc_prev = dc_total * f
    one = np.float32(1)
    dpre = np.concatenate([
        di * i * (one - i),
        df * f * (one - f),
        dg * (one - g * g),
        do * o * (one - o),
    ], axis=1)
    return dpre, dc_prev
