"""Forward/backward compute primitives with widened accumulation.

Every kernel takes plain float32 NumPy arrays, returns arrays (a loss
also returns its value as a float) and accumulates in FP32.  Which of
those arrays hold values exact in a 16-bit format, and where they are
rounded, is decided by the network around the kernels; no kernel
quantizes, and none knows the policy.  So the LSTM
cell is gate arithmetic alone: the layer around it runs its GEMMs and
quantizes the hidden state and the gate gradients between them.

Reduction order is fixed so results are bit-reproducible.  The GEMM
never calls BLAS, whose blocked sums take another order.  It adds one k
step at a time, in increasing k, into an FP32 accumulator, either as
one NumPy call per step or as one ``np.add.reduce`` over the leading
axis of a chunk of products: NumPy adds the rows of a non-innermost
axis one after another, elementwise, so the order is the same.  The
chunked path takes outputs of up to 16384 elements whole, and larger
outputs whose rows hold at most 2048 elements, with k >= 4, one block
of whole rows (at most 16384 elements) at a time, so its buffer stays
at about 1 MB.  Longer rows, and shorter k, run faster on the loop.  A
single output element (m*n == 1) would make the reduced axis the
innermost loop, which NumPy sums pairwise, so it stays on the per-step
loop.  The chunk's products come from ``np.einsum``, whose fixed cost
per row is about half ``np.multiply``'s; they carry the same bits into
the sum (``_gemm_chunked``).  An output holding a NaN is rebuilt whole
on the loop, whose NaN payloads it then keeps.
Without subnormals, x86's ``VDPBF16PS`` gives the same bits as this
order run over k with each adjacent pair of steps swapped
(``tests/test_hardware.py``).

Each step is a broadcast multiply and add, and NumPy pays a fixed cost
per row of its inner loop, which runs along the output's last axis.  A
tall, thin output (n < m) therefore pays for m short rows at every k
step.  ``_gemm`` then builds the transposed output instead, as
(b^T a^T)^T on a contiguous copy of a^T, so the rows run along m.  Each
output element still sums the same FP32 products, each with a's element
as the first factor, in increasing k from +0, so the bits do not
change; only the layout NumPy loops over does.  The swap copies a and
the result once, so it is taken only where the k steps repay that
(``_gemm``).  A convolution's forward and dx GEMMs run their output rows
along the Ho*Wo*N output pixels of the whole batch, so they need no
swap.

Convolution takes and returns NCHW arrays.  Inside, its forward and dx
keep the batch axis innermost, so that their copies and adds run along
rows that hold the whole batch: in NCHW, a row of an 8x8 or 4x4 image
holds 8 or 4 pixels, and NumPy's fixed cost per row would dominate.
The forward and dx GEMMs have a column per output pixel in (i, j, n)
order.  ``_im2col``
pads one (C, H+2p, W+2p, N) copy of x and fills the (C*k*k, Ho*Wo*N)
window matrix with one slice copy per kernel offset (u, v).
``_col2im`` adds the (u, v) windows back into a +0 image of that
layout, one offset at a time, so each pixel sees its contributions in
that fixed order, then crops it and transposes it to NCHW once.  dw's
GEMM sums over the output pixels: its k order is the summation order,
so it stays (n, i, j).  Its (N*Ho*Wo, k*k*C) window matrix is one
strided view of a padded NHWC copy of x, with columns in (u, v, c)
order, and the small (F, k, k, C) result is transposed back to
(F, C, k, k).  Moving a GEMM's output columns changes neither the
products an output element sums nor their k order, and ``_gemm`` routes
by shape alone, so the bits are those of the NCHW lowering.  The
exception is a NaN's payload, which can depend on where its element
falls in a row.  The forward writes its (F, Ho, Wo, N) result, plus the
bias, into the NCHW output one channel at a time.

Pooling tiles the image with non-overlapping windows, a reshape
view that drops the border the tiles miss: each pixel lies in at most
one window, so pooling's backward writes its one share in place and
sums nothing; avg pooling adds each tile into +0 in row-major order.
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


# Outputs with 2 <= m*n <= _CHUNKED_MAX_MN and k > 1 take the chunked
# path of _gemm whole.  Larger ones take it one block of whole rows at a
# time, each of at most _CHUNKED_MAX_MN elements, when k >= _BLOCKED_MIN_K
# and their rows hold 2 to _CHUNKED_MAX_ROW elements; the rest stay on
# the per-k loop.  _CHUNK_ELEMS bounds the kc * m * n products of one
# chunk, so a chunk's buffer never holds more than 17 * 16384 floats
# (1.1 MB).  Measured against the per-k loop at k = 64 unless named, the
# chunked path took 0.44-0.86x the loop's time on every output of up to
# 65536 elements in rows of up to 2048, e.g. the LSTM's (128, 32, 128)
# 0.41 -> 0.28 ms.  Rows of 3072 or more were slower chunked, 1.16-2.7x:
# conv's (8, 9, 8192) took 0.23 ms on the loop and 0.52 ms chunked.  On
# outputs of 32768-65536 elements the blocks took 1.13-1.21x the loop's
# time at k = 2 (mlp-circles' (512, 2, 64) 0.053 -> 0.062 ms), 0.84-1.01x
# at k = 3 and 0.70-0.95x from k = 4.  A buffer sized by a whole output
# past 16384 elements raised the peak RSS of an lstm-sine or mlp-circles
# run by 0.6-0.7 MB; the row blocks keep it at the 16384-element size.
_CHUNKED_MAX_MN = 1 << 14
_CHUNKED_MAX_ROW = 2048
_BLOCKED_MIN_K = 4
_CHUNK_ELEMS = 1 << 18


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"gemm shapes incompatible: {a.shape} x {b.shape}")
    m, k = a.shape
    n = b.shape[1]
    # The swap saves m - n row starts per k step and costs transposed
    # copies of a and of the result.  On shapes up to m = 8192 it paid
    # wherever k >= n/4, apart from outputs of a few hundred elements,
    # where it lost 1-2 us; below k = n/4 it cost up to 3.3x (k = 1,
    # n = 512).  With n == 1 the output is one contiguous line either way.
    if 1 < n < m and n <= 4 * k:
        at = np.ascontiguousarray(a.T)
        acc = _gemm_rows(at[:, None, :], b[:, :, None], (n, m))
        return np.ascontiguousarray(acc.T)
    # Rows of b strided in memory, as in x @ W.T, cost einsum its gain:
    # (128, 32, 128) with b = W.T took 0.61 ms, and 0.32 ms on a copy.
    b = np.ascontiguousarray(b)
    return _gemm_rows(a.T[:, :, None], b[:, None, :], (m, n))


def _gemm_rows(x: np.ndarray, y: np.ndarray, shape) -> np.ndarray:
    """Sum over j of x[j] * y[j], in increasing j, from +0.

    ``x`` holds a's elements and ``y`` b's, as k-major views whose steps
    broadcast to ``shape``, so a's element is always the first factor.
    NumPy's inner loop runs along the last axis of ``shape``.
    """
    k = x.shape[0]
    acc = np.zeros(shape, np.float32)
    rows, width = shape
    if acc.size >= 2 and (k > 1 and acc.size <= _CHUNKED_MAX_MN
                          or k >= _BLOCKED_MIN_K
                          and 2 <= width <= _CHUNKED_MAX_ROW):
        # Blocks of whole rows, each of at most _CHUNKED_MAX_MN elements,
        # so an output of up to that size is one block: the operand that
        # runs along the rows is sliced, the other broadcasts.
        step = _CHUNKED_MAX_MN // width
        for lo in range(0, rows, step):
            _gemm_chunked(x if x.shape[1] == 1 else x[:, lo:lo + step],
                          y if y.shape[1] == 1 else y[:, lo:lo + step],
                          acc[lo:lo + step])
        # A NaN product may keep the other NaN's payload there (see
        # _gemm_chunked), and any NaN product leaves a NaN in its output
        # element: the whole output is then rebuilt on the loop.
        if np.isnan(acc).any():
            acc[...] = 0
            _gemm_loop(x, y, acc)
    else:
        _gemm_loop(x, y, acc)
    return acc


def _gemm_loop(x: np.ndarray, y: np.ndarray, acc: np.ndarray) -> None:
    """Adds x[j] * y[j] into ``acc`` one NumPy call per step, in
    increasing j."""
    tmp = np.empty_like(acc)
    for j in range(x.shape[0]):
        np.multiply(x[j], y[j], out=tmp)
        acc += tmp


def _gemm_chunked(x: np.ndarray, y: np.ndarray, acc: np.ndarray) -> None:
    """The loop of _gemm_rows, one NumPy reduction per chunk of k steps.

    Row 0 of ``buf`` holds the running sum and rows 1.. the products of
    the chunk.  Reducing the leading axis adds them to row 0 one row at a
    time, elementwise over the contiguous m*n inner loop, so every output
    element sees the same FP32 additions in the same order as in the
    loop.  That holds only while the reduced axis is not NumPy's inner
    loop: with m*n == 1 it is, and NumPy then sums it pairwise, as row 0
    plus the pairwise sum of the rest, which changed the bits for every
    such shape tried with k >= 7.  Those shapes, k == 1 and the large
    outputs _gemm_rows leaves on the loop (k < _BLOCKED_MIN_K, rows of
    one element or of more than _CHUNKED_MAX_ROW) do not come here; the
    other large outputs come one block of whole rows at a time, so
    ``acc`` never holds more than _CHUNKED_MAX_MN elements.

    The products come from ``np.einsum`` over a size-1 contracted axis,
    with a's element as the first operand: NumPy pays about half
    ``np.multiply``'s fixed cost per row of the broadcast.  (The default
    ``optimize=False`` keeps einsum in its own loops; it never calls
    BLAS.)  Each product comes out as a*b added to +0, which differs
    from ``np.multiply``'s in two ways.  A -0 product comes out +0.
    That cannot change a sum: the sum starts at +0, and a rounded sum is
    -0 only when both addends are -0, so the running sum is never -0, and
    adding either zero to it gives the same bits.  And NaN * NaN may keep
    b's payload; _gemm_rows then rebuilds the whole output on the loop.
    """
    k = x.shape[0]
    # acc.size <= _CHUNKED_MAX_MN keeps the chunk length at 16 or more,
    # and the buffer at or below (1 + 16) * _CHUNKED_MAX_MN floats.
    kc = min(_CHUNK_ELEMS // acc.size, k)
    buf = np.empty((1 + kc,) + acc.shape, np.float32)
    # x runs along p (a column of a) or, transposed, along q (a row of
    # a^T); either way it stays the first operand.
    spec = "jpz,jzq->jpq" if x.shape[2] == 1 else "jzq,jpz->jpq"
    for j in range(0, k, kc):
        c = min(kc, k - j)
        np.einsum(spec, x[j:j + c], y[j:j + c], out=buf[1:1 + c])
        buf[0] = acc
        np.add.reduce(buf[:1 + c], axis=0, out=acc)


# ---------------------------------------------------------------------------
# convolution (im2col based, batch axis innermost)
# ---------------------------------------------------------------------------


def _out_extent(size: int, k: int, stride: int, pad: int) -> int:
    out = (size + 2 * pad - k) // stride + 1
    if out < 1:
        raise ShapeError(f"conv output extent {out} < 1")
    return out


def _im2col(x: np.ndarray, k: int, stride: int, pad: int,
            transposed: bool = False) -> np.ndarray:
    """Window matrix of the NCHW image x, laid out for one of conv's GEMMs.

    Without ``transposed``: (N*Ho*Wo, k*k*C), a row per output pixel
    (n, i, j) and a column per (u, v, c), so dw's GEMM sums down the rows
    in (n, i, j) order.  With ``transposed``: (C*k*k, Ho*Wo*N), a row per
    (c, u, v) and a column per output pixel (i, j, n), for the forward's
    GEMM."""
    n, c, h, w = x.shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(w, k, stride, pad)
    p, s = pad, stride
    if transposed:
        # One padded (C, H+2p, W+2p, N) copy, then one slice copy per
        # (u, v), each along rows holding the whole batch.
        xp = np.zeros((c, h + 2 * p, w + 2 * p, n), np.float32)
        xp[:, p:p + h, p:p + w] = x.transpose(1, 2, 3, 0)
        cols = np.empty((c, k, k, ho, wo, n), np.float32)
        for u in range(k):
            for v in range(k):
                cols[:, u, v] = xp[:, u:u + ho * s:s, v:v + wo * s:s]
        return cols.reshape(c * k * k, ho * wo * n)
    # One padded (N, H+2p, W+2p, C) copy, whose windows are a strided
    # (N, Ho, Wo, k, k, C) view; the reshape copies it once.
    xp = np.zeros((n, h + 2 * p, w + 2 * p, c), np.float32)
    xp[:, p:p + h, p:p + w] = x.transpose(0, 2, 3, 1)
    wins = sliding_window_view(xp, (k, k), axis=(1, 2))[:, ::s, ::s]
    return wins.transpose(0, 1, 2, 4, 5, 3).reshape(n * ho * wo, k * k * c)


def _col2im(cols_t: np.ndarray, x_shape, k: int, stride: int,
            pad: int) -> np.ndarray:
    """Adjoint of the transposed _im2col: adds the windows of cols_t
    (C*k*k, Ho*Wo*N) into a +0 (C, H+2p, W+2p, N) image one (u, v) offset
    at a time, so each pixel sees its contributions in that fixed order,
    then drops the padding and returns the NCHW image."""
    n, c, h, w = x_shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(w, k, stride, pad)
    wins = cols_t.reshape(c, k, k, ho, wo, n)
    p, s = pad, stride
    xp = np.zeros((c, h + 2 * p, w + 2 * p, n), np.float32)
    for u in range(k):
        for v in range(k):
            xp[:, u:u + ho * s:s, v:v + wo * s:s] += wins[:, u, v]
    return xp[:, p:p + h, p:p + w].transpose(3, 0, 1, 2).copy()


def _check_conv(x: np.ndarray, w: np.ndarray) -> tuple[int, int]:
    """Returns (output channels, kernel size) of a square-kernel conv."""
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError("conv expects NCHW input and FCkhkw weights")
    f, c, kh, kw = w.shape
    if kh != kw or x.shape[1] != c:
        raise ShapeError(f"conv weights {w.shape} do not fit input "
                         f"{x.shape}: need C to match and a square kernel")
    return f, kh


def conv2d_forward(x: np.ndarray, w: np.ndarray, stride: int = 1,
                   pad: int = 0, bias: np.ndarray | None = None
                   ) -> np.ndarray:
    """NCHW convolution as im2col followed by gemm (bit-exactly), plus
    ``bias[f]`` on output channel f when given."""
    f, k = _check_conv(x, w)
    n, _, h, wd = x.shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(wd, k, stride, pad)
    # (F, C*k*k) x (C*k*k, Ho*Wo*N): rows run along Ho*Wo*N.
    out = _gemm(w.reshape(f, -1), _im2col(x, k, stride, pad, transposed=True))
    out = out.reshape(f, ho, wo, n)
    y = np.empty((n, f, ho, wo), np.float32)
    # One channel at a time: the whole (F*Ho*Wo, N) -> (N, F*Ho*Wo) pass
    # with the bias add took 1.1-2x as long on the shipped shapes.
    for fi in range(f):
        if bias is None:
            y[:, fi] = out[fi].transpose(2, 0, 1)
        else:
            np.add(out[fi].transpose(2, 0, 1), bias[fi], out=y[:, fi])
    return y


def conv2d_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray,
                    stride: int = 1, pad: int = 0, input_grad: bool = True):
    """Returns (dx, dw), both FP32; dx is None unless ``input_grad``."""
    f, k = _check_conv(x, w)
    n, c, h, wd = x.shape
    ho = _out_extent(h, k, stride, pad)
    wo = _out_extent(wd, k, stride, pad)
    if dy.shape != (n, f, ho, wo):
        raise ShapeError(f"conv dy shape {dy.shape} != {(n, f, ho, wo)}")
    dx = None
    if input_grad:
        # dy as (F, Ho*Wo*N), the forward's column order: the rows of
        # dx's GEMM run along Ho*Wo*N.
        dy_t = dy.transpose(1, 2, 3, 0).reshape(f, ho * wo * n)
        dx = _col2im(_gemm(w.reshape(f, -1).T, dy_t), x.shape, k, stride,
                     pad)
    # dw's long k runs over (n, i, j), down the window matrix.
    dw = _gemm(dy.transpose(1, 0, 2, 3).reshape(f, n * ho * wo),
               _im2col(x, k, stride, pad))
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
    inv_std = (1.0 / np.sqrt(var + np.float32(eps))).astype(np.float32)
    xhat = (x - expand(mean)) * expand(inv_std)
    y = xhat * expand(gamma) + expand(beta)
    cache = (x, xhat, inv_std, expand, axes, count)
    return y.astype(np.float32), cache


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
    return dx.astype(np.float32), dgamma.astype(np.float32), \
        dbeta.astype(np.float32)


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def _mask(keep: np.ndarray) -> np.ndarray:
    """uint32 all-ones where ``keep`` is true, all-zeros elsewhere."""
    m = keep.astype(np.uint32)
    np.negative(m, out=m)
    return m


def _sigmoid(v: np.ndarray) -> np.ndarray:
    return (1.0 / (1.0 + np.exp(-v.astype(np.float32)))).astype(np.float32)


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


def _tiles(a: np.ndarray, k: int) -> np.ndarray:
    """View (N, C, Ho, k, Wo, k) of the k x k tiles of a, which drops the
    border the tiles miss."""
    n, c, h, w = a.shape
    ho = _out_extent(h, k, k, 0)
    wo = _out_extent(w, k, k, 0)
    return a[:, :, :ho * k, :wo * k].reshape(n, c, ho, k, wo, k)


def pool_forward(kind: PoolKind, x: np.ndarray, window: int):
    """Returns (y, cache).  Max pooling picks, bit for bit, the element
    np.argmax would: the first row-major winner, or the first NaN.  Avg
    pooling adds each tile's elements into +0 in row-major order, then
    divides by window**2."""
    k = window
    tiles = _tiles(x, k)
    if kind is PoolKind.AVG:
        # One add per element of the tile: a reduction over the window
        # would not keep this order for 9 or more addends.
        acc = tiles[:, :, :, 0, :, 0] + np.float32(0)
        for p in range(1, k * k):
            acc += tiles[:, :, :, p // k, :, p % k]
        acc /= np.float32(k * k)
        return acc, (kind, x.shape, k, None)
    # One contiguous (k * k, N, C, Ho, Wo) copy: each pass below then
    # runs over whole slots, not over rows k elements long.
    slots = np.ascontiguousarray(tiles.transpose(3, 5, 0, 1, 2, 4))
    slots = slots.reshape((k * k,) + slots.shape[2:])
    bits = slots.view(np.uint32)
    best = bits[0].copy()
    arg = np.zeros(best.shape, np.min_scalar_type(len(slots) - 1))
    has_nan = bool(np.isnan(x).any())
    for p in range(1, len(slots)):
        cur = best.view(np.float32)
        take = slots[p] > cur
        if has_nan:
            take |= np.isnan(slots[p]) & ~np.isnan(cur)
        # Select p's bits where it wins; the passes run in increasing p,
        # so the winner's index is the largest p taken.
        best ^= (best ^ bits[p]) & _mask(take)
        np.maximum(arg, take * arg.dtype.type(p), out=arg)
    return best.view(np.float32), (kind, x.shape, k, arg)


def pool_backward(dy: np.ndarray, cache) -> np.ndarray:
    """dx of pooling: each tile's max winner takes dy (the rest of the
    tile +0), or every pixel of the tile takes dy / window**2; the
    border the tiles miss is +0.  Each share is written in place as
    share + 0, so a -0 share reads +0."""
    kind, x_shape, k, arg = cache
    dx = np.zeros(x_shape, np.float32)
    tiles = _tiles(dx, k)
    n, c, ho, _, wo, _ = tiles.shape
    if dy.shape != (n, c, ho, wo):
        raise ShapeError(f"pool dy shape {dy.shape} != {(n, c, ho, wo)}")
    if kind is PoolKind.AVG:
        share = dy / np.float32(k * k) + np.float32(0)
        tiles[...] = share[:, :, :, None, :, None]
        return dx
    src = (dy + np.float32(0)).view(np.uint32)
    shares = tiles.transpose(3, 5, 0, 1, 2, 4)
    for p in range(k * k):
        np.bitwise_and(src, _mask(arg == p),
                       out=shares[p // k, p % k].view(np.uint32))
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
    expz = np.exp(shifted.astype(np.float32))
    probs = (expz / expz.sum(axis=1, keepdims=True, dtype=np.float32))
    logp = shifted - np.log(expz.sum(axis=1, keepdims=True,
                                     dtype=np.float32))
    loss = float(-logp[np.arange(n), labels].mean(dtype=np.float32))
    d = probs.astype(np.float32)
    d[np.arange(n), labels] -= np.float32(1)
    d /= np.float32(n)
    return loss, d


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
    g = np.tanh(pre[:, 2 * hsz:3 * hsz]).astype(np.float32)
    o = _sigmoid(pre[:, 3 * hsz:])
    c = f * c_prev + i * g
    h = o * np.tanh(c).astype(np.float32)
    return h, c, (c_prev, i, f, g, o, c)


def lstm_cell_backward(dh: np.ndarray, dc: np.ndarray, cache):
    """Gradients of one LSTM step with respect to its pre-activations
    and its incoming cell state.  Returns (dpre, dc_prev), both FP32."""
    c_prev, i, f, g, o, c = cache
    tc = np.tanh(c).astype(np.float32)
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
    ], axis=1).astype(np.float32)
    return dpre, dc_prev
