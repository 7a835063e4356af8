"""Dense NCHW tensor operations.

All feature maps are rank-4 numpy arrays in (batch, channel, height, width)
order, float32 by default. These are the full-precision reference paths that
the 1-bit kernels in :mod:`bidrn.binary` are checked against.
:func:`im2col` gathers windows as (N*OH*OW, kh*kw*C) rows, a 1x1 window
as the transposed view of a channel-major copy; its adjoint
:func:`col2im`, the one scatter primitive, takes the transposed, tap-major
(kh*kw*C, N*OH*OW) layout that a channel-major convolution backward makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Parameter
from .errors import DimensionError


def check_nchw(x: np.ndarray, name: str = "input") -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"{name} must be rank-4 NCHW, got shape {x.shape}")
    if min(x.shape) < 1:
        raise DimensionError(f"{name} extents must all be >= 1, got {x.shape}")
    return x


def conv_out_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    if padding < 0:
        raise DimensionError(f"padding must be >= 0, got {padding}")
    out = (extent + 2 * padding - kernel) // stride + 1
    if out < 1:
        raise DimensionError(
            f"kernel {kernel} with stride {stride}, padding {padding} does not fit "
            f"extent {extent}"
        )
    return out


def conv_transpose_extent(extent: int, kernel: int, stride: int, padding: int) -> int:
    """Output extent of a transposed convolution; DimensionError unless it is valid."""
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}; below 1 a transposed "
                             "conv leaves no output grid")
    if padding < 0:
        raise DimensionError(f"padding must be >= 0, got {padding}; a negative crop "
                             "reaches past the full grid, which leaves no output there")
    out = (extent - 1) * stride - 2 * padding + kernel
    if out < 1:
        raise DimensionError(f"transposed conv of extent {extent} with kernel {kernel}, "
                             f"stride {stride}, padding {padding} leaves no output")
    return out


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, each row shifted by its max so exp cannot overflow."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def im2col(x: np.ndarray, kh: int, kw: int, stride: int, padding: int,
           pad_value=0.0) -> np.ndarray:
    """Rearrange sliding windows into rows of shape (N*OH*OW, kh*kw*C).

    Rows are ordered (n, oh, ow) and columns (kh, kw, c), the order of
    :func:`weight_matrix`. x is written once into a padded channels-last
    buffer, so each window row is kh contiguous runs of kw*C cells, and one
    copy of the strided window view fills the rows, a C-contiguous array.
    A 1x1, stride-1, unpadded window is the pixel itself: its matrix is the
    transposed view of a fresh channel-major (C, N*H*W) copy of x, whose
    copy runs along H*W cells where a channels-last one runs along 1 to C.
    BLAS reads it through its transpose flag, so a product with it equals
    the product with the C-contiguous rows bit for bit. ``pad_value``, a
    scalar of x's dtype, matters for a 1-bit gather, where padded cells must
    carry the sign convention of zero (+1) rather than a float zero: True
    for sign bits.
    """
    x = check_nchw(x)
    n, c, h, w = x.shape
    if kh == kw == stride == 1 and padding == 0:
        return x.transpose(1, 0, 2, 3).copy().reshape(c, n * h * w).T
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    p = padding
    xp = np.empty((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
    if p:
        xp[:, :p] = xp[:, h + p:] = pad_value
        xp[:, p:h + p, :p] = xp[:, p:h + p, w + p:] = pad_value
    xp[:, p:h + p, p:w + p] = x.transpose(0, 2, 3, 1)
    s = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(n, oh, ow, kh, kw, c),
        strides=(s[0], s[1] * stride, s[2] * stride, s[1], s[2], s[3]))
    return np.ascontiguousarray(windows).reshape(n * oh * ow, kh * kw * c)


def col2im(cols: np.ndarray, x_shape, kh: int, kw: int, stride: int,
           padding: int) -> np.ndarray:
    """Adjoint of :func:`im2col`, in the transposed, tap-major layout: ``cols``
    is (kh*kw*C, N*OH*OW), rows ordered (kh, kw, c) and columns (n, oh, ow),
    as ``weight_matrix(w).T @ g`` gives it for g of shape (C_out, N*OH*OW).

    Each kernel tap's (C, N, OH, OW) block is added onto a channel-major
    padded grid in one strided add that reads contiguous runs of OW cells;
    one copy then crops the padding and returns a C-contiguous NCHW array.
    """
    n, c, h, w = x_shape
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    grid = np.zeros((c, n, hp, wp), dtype=cols.dtype)
    taps = cols.reshape(kh, kw, c, n, oh, ow)
    for i in range(kh):
        for j in range(kw):
            grid[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride] += taps[i, j]
    return np.ascontiguousarray(
        grid[:, :, padding:padding + h, padding:padding + w].transpose(1, 0, 2, 3))


def weight_matrix(w: np.ndarray) -> np.ndarray:
    """(O, I, kh, kw) weights as an (O, kh*kw*I) matrix in im2col's column order."""
    return w.transpose(0, 2, 3, 1).reshape(w.shape[0], -1)


def matrix_to_weight(m: np.ndarray, shape) -> np.ndarray:
    """Inverse of :func:`weight_matrix`: a C-contiguous (O, I, kh, kw) array."""
    o, i, kh, kw = shape
    return np.ascontiguousarray(m.reshape(o, kh, kw, i).transpose(0, 3, 1, 2))


def conv_transpose2d(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Transposed convolution of x (N, C_in, H, W) with w (C_in, C_out, kh, kw),
    cropped by ``padding`` to :func:`conv_transpose_extent` of H and W. An
    operand that is not rank-4, weights whose C_in is not x's, a bad stride
    or padding, or a crop that leaves no output raises DimensionError.

    A stride-s transposed convolution is s*s ordinary convolutions, one per
    output phase, interleaved (Shi et al., CVPR 2016). The kernel is padded
    with zero taps to q*s per axis, q = ceil(K/s), then flipped and regrouped
    into a (q*q*C_in, s*s*C_out) matrix whose column (r, r', o) holds the taps
    of output phase (r, r'). :func:`im2col` gathers the q x q windows of x at
    stride 1 with zero padding q-1, and one GEMM computes every phase. Each
    phase is written into the full (H+q-1)*s grid by its own strided copy,
    whose rows run along the input width; a single copy of all s*s phases
    would run its innermost loop over only the s cells of one phase row. The
    result is a view of that grid. On ±1 operands each sum is an exact small
    integer, so it equals the scatter form
    ``col2im(weight_matrix(w).T @ x_rows.T)`` bit for bit, and a per-channel
    scale applied afterwards, as ``ops.binary_deconv2d`` applies alpha, gives
    the 1-bit layer. Its adjoint is the plain convolution with the same
    weights read as (O, I, kh, kw): ``conv2d_with_cols(g, w, stride, padding)``
    maps a gradient of the output back to x's shape.
    """
    x = check_nchw(x)
    w = check_nchw(w, "weights")
    n, c_in, h, wd = x.shape
    if w.shape[0] != c_in:
        raise DimensionError(
            f"weight input channels {w.shape} do not match input {x.shape}"
        )
    _, c_out, kh, kw = w.shape
    s = stride
    oh = conv_transpose_extent(h, kh, s, padding)
    ow = conv_transpose_extent(wd, kw, s, padding)
    q = -(-max(kh, kw) // s)
    taps = np.zeros((c_in, c_out, q * s, q * s), dtype=w.dtype)
    taps[:, :, :kh, :kw] = w
    w_mat = taps.reshape(c_in, c_out, q, s, q, s)[:, :, ::-1, :, ::-1, :] \
        .transpose(2, 4, 0, 3, 5, 1).reshape(q * q * c_in, s * s * c_out)
    cols = im2col(x, q, q, 1, q - 1)  # (N*U*V, q*q*C_in)
    u, v = h + q - 1, wd + q - 1
    phases = (cols @ w_mat).reshape(n, u, v, s, s, c_out)
    y = np.empty((n, c_out, u * s, v * s), dtype=phases.dtype)
    grid = y.reshape(n, c_out, u, s, v, s)
    for r in range(s):
        for r2 in range(s):
            grid[:, :, :, r, :, r2] = phases[:, :, :, r, r2, :].transpose(0, 3, 1, 2)
    return y[:, :, padding:padding + oh, padding:padding + ow]


def conv2d_reference(x: np.ndarray, weights: np.ndarray, stride: int = 1,
                     padding: int = 0) -> np.ndarray:
    """Full-precision cross-correlation, no bias, zero padding."""
    return conv2d_with_cols(x, weights, stride, padding)[0]


def conv2d_with_cols(x: np.ndarray, weights: np.ndarray, stride: int = 1,
                     padding: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """:func:`conv2d_reference`'s output and the (N*OH*OW, kh*kw*C) window
    matrix it multiplied, which a backward reads in place of a second gather."""
    x = check_nchw(x)
    weights = check_nchw(weights, "weights")
    n, c, h, w = x.shape
    c_out, c_in, kh, kw = weights.shape
    if c_in != c:
        raise DimensionError(
            f"weight input channels {weights.shape} do not match input {x.shape}"
        )
    oh = conv_out_extent(h, kh, stride, padding)
    ow = conv_out_extent(w, kw, stride, padding)
    cols = im2col(x, kh, kw, stride, padding)
    y = cols @ weight_matrix(weights).T
    return y.reshape(n, oh, ow, c_out).transpose(0, 3, 1, 2), cols


def avg_pool2d(x: np.ndarray, window: int = 2, stride: int | None = None) -> np.ndarray:
    """Mean over each window x window patch, returned in x's dtype.

    Each window row's taps are summed left to right, the row sums are added
    top to bottom, and the total is divided by window**2. That is the order
    numpy's ``mean`` takes over a strided window view whose output is at
    least two columns wide, so the two agree bit for bit there.
    """
    x = check_nchw(x)
    if stride is None:
        stride = window
    n, c, h, w = x.shape
    if window < 1 or window > h or window > w:
        raise DimensionError(
            f"pool window {window} does not fit spatial extent {h}x{w}"
        )
    if stride < 1:
        raise DimensionError(f"stride must be >= 1, got {stride}")
    # Extent of the window origins, so that tap (i, j) is x[..., i::stride, j::stride].
    span_h = (h - window) // stride * stride + 1
    span_w = (w - window) // stride * stride + 1
    acc = x.dtype if x.dtype.kind == "f" else np.float64  # integers average as mean does
    total = None
    for i in range(window):
        row = x[:, :, i:i + span_h:stride, 0:span_w:stride].astype(acc)
        for j in range(1, window):
            row += x[:, :, i:i + span_h:stride, j:j + span_w:stride]
        if total is None:
            total = row
        else:
            total += row
    total /= window * window
    return total.astype(x.dtype, copy=False)


@dataclass
class BatchNormParams:
    """Per-channel batch normalization state.

    ``scale``/``shift`` are learnable; running statistics are plain buffers
    updated in training mode only.
    """

    scale: Parameter
    shift: Parameter
    running_mean: np.ndarray
    running_var: np.ndarray
    eps: float = 1e-5
    momentum: float = 0.1

    @classmethod
    def create(cls, channels: int) -> "BatchNormParams":
        return cls(
            scale=Parameter(np.ones(channels)),
            shift=Parameter(np.zeros(channels)),
            running_mean=np.zeros(channels, dtype=np.float32),
            running_var=np.ones(channels, dtype=np.float32),
        )

    @property
    def channels(self) -> int:
        return self.scale.data.shape[0]

    def state(self, name: str) -> dict:
        """scale and shift, then the running statistics, named name.field."""
        return {f"{name}.scale": self.scale, f"{name}.shift": self.shift,
                f"{name}.running_mean": self.running_mean,
                f"{name}.running_var": self.running_var}

