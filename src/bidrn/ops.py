"""Differentiable operations built on the tape in :mod:`bidrn.autograd`.

Forward math delegates to :mod:`bidrn.tensor` and :mod:`bidrn.binary`;
each op wires up the matching backward rule. Every 1-bit layer (the
convolution, the transposed convolution and the linear layer) is one node
whose parents are the activation x itself and the latent weights: it
binarizes both operands itself and scales by alpha per output channel.
Each backward computes the gradients of sign(x) and of alpha * sign(w) and
hands them to one shared tail, which multiplies the first in place by the
piecewise-quadratic straight-through factor :func:`binary.ste_grad` of x,
the gradient of the sign, and runs the weight rule, which combines that
factor of the latent weights with the exact derivative of alpha. The
convolution's forward reads the bits x >= 0 straight from the activation,
so no ±1 copy of it is made, signs the latent weights once and keeps them
with the packed XNOR-popcount kernel's sign rows; its backward unpacks
those rows into the ±1 window matrix in place of a second gather and runs
the plain convolution adjoint with alpha * sign(w). The convolution adjoint
runs channel-major, and its input gradient is scattered from the tap-major
window matrix that :func:`tensor.col2im` takes. The transposed convolution,
which has no other implementation, is the phase GEMM of
:func:`tensor.conv_transpose2d` on sign(x) and sign(w), whose backward is
the plain convolution of g with alpha * sign(w). The linear layer is the
exact ±1 matmul sign(x) @ sign(w).T, whose backward is the plain linear
adjoint. Both keep sign(x), which their weight gradients read.
:func:`smooth_mode`, which gradcheck enters and only this module reads,
puts the surrogate F in place of sign in every 1-bit op's forward; it
changes only the operands. BatchNorm keeps only its per-channel mean and inverse
standard deviation and rebuilds x_hat from its input in the backward.
Hardtanh uses the clamp mask. A full-precision convolution keeps its
forward's window matrix for the backward. A slice is a view of its input's
data. Slice and concat count a negative axis from the last.
"""

from __future__ import annotations

import builtins
import contextlib
import itertools

import numpy as np

from . import binary, tensor
from .autograd import Var, as_var
from .errors import DimensionError


def add(a, b) -> Var:
    a, b = as_var(a), as_var(b)
    if a.data.shape != b.data.shape:
        raise DimensionError(f"add shapes differ: {a.data.shape} vs {b.data.shape}")
    out_data = a.data + b.data

    def backward(g):
        a.accumulate(g)
        b.accumulate(g)

    return Var(out_data, parents=(a, b), backward=backward, op="add")


def reshape(a, shape) -> Var:
    a = as_var(a)
    orig = a.data.shape

    def backward(g):
        a.accumulate(g.reshape(orig))

    return Var(a.data.reshape(shape), parents=(a,), backward=backward, op="reshape")


def exp(a) -> Var:
    a = as_var(a)
    out_data = np.exp(a.data)

    def backward(g):
        a.accumulate(g * out_data)

    return Var(out_data, parents=(a,), backward=backward, op="exp")


def hardtanh(x) -> Var:
    x = as_var(x)
    out_data = np.clip(x.data, -1.0, 1.0)

    def backward(g):
        mask = (x.data > -1.0) & (x.data < 1.0)
        x.accumulate(g * mask)

    return Var(out_data, parents=(x,), backward=backward, op="hardtanh")


def relu(x) -> Var:
    x = as_var(x)

    def backward(g):
        x.accumulate(g * (x.data > 0))

    return Var(np.maximum(x.data, 0), parents=(x,), backward=backward, op="relu")


def _leaky(x, k):
    """max(x, 0) + k * min(x, 0), built in place."""
    out = np.minimum(x, 0)
    out *= k
    out += np.maximum(x, 0)
    return out


def _leaky_slope(x, k):
    """The derivative of _leaky: 1 where x > 0, else k. It is formed as
    m + k * (1 - m) from the float mask m = (x > 0), so no pass branches."""
    m = (x > 0).astype(x.dtype)
    slope = 1 - m
    slope *= k
    slope += m
    return slope


def prelu(x) -> Var:
    """max(x, 0) + 0.25 * min(x, 0), with the slope in x's dtype in both passes."""
    x = as_var(x)
    k = np.asarray(0.25, dtype=x.data.dtype)

    def backward(g):
        dx = _leaky_slope(x.data, k)
        dx *= g
        x.accumulate(dx)

    return Var(_leaky(x.data, k), parents=(x,), backward=backward, op="prelu")


PREACT = {"hardtanh": hardtanh, "relu": relu, "prelu": prelu}


def avg_pool(x, window: int = 2, stride: int | None = None) -> Var:
    x = as_var(x)
    if stride is None:
        stride = window
    out_data = tensor.avg_pool2d(x.data, window, stride)

    def backward(g):
        n, c, oh, ow = g.shape
        dx = np.zeros_like(x.data)
        g_tap = g * (1.0 / (window * window))
        for i in range(window):
            for j in range(window):
                dx[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride] += g_tap
        x.accumulate(dx)

    return Var(out_data, parents=(x,), backward=backward, op="avg_pool")


def _axis(axis: int, ndim: int) -> int:
    """``axis`` of an ndim-rank array as an index from 0; DimensionError
    when it names no axis."""
    if not -ndim <= axis < ndim:
        raise DimensionError(f"axis {axis} out of range for rank {ndim}")
    return axis % ndim


def _along(axis: int, start: int, stop: int) -> tuple:
    """Index selecting start:stop on ``axis`` and everything on the axes before it."""
    return (builtins.slice(None),) * axis + (builtins.slice(start, stop),)


def slice(x, axis: int, start: int, stop: int) -> Var:
    """x[start:stop] along ``axis``, a view; the backward scatters g into zeros."""
    x = as_var(x)
    axis = _axis(axis, x.data.ndim)
    if not 0 <= start < stop <= x.data.shape[axis]:
        raise DimensionError(
            f"slice {start}:{stop} out of range for axis {axis} of {x.data.shape}"
        )
    idx = _along(axis, start, stop)

    def backward(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        x.accumulate(full)

    return Var(x.data[idx], parents=(x,), backward=backward, op="slice")


def concat(parts, axis: int = 1) -> Var:
    """Joins the parts along ``axis``; the backward hands each part its slice of g."""
    parts = [as_var(p) for p in parts]
    try:
        out_data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise DimensionError(
            f"cannot concatenate {[p.data.shape for p in parts]} along axis {axis}"
        ) from None
    axis = _axis(axis, out_data.ndim)
    bounds = list(itertools.accumulate((p.data.shape[axis] for p in parts), initial=0))

    def backward(g):
        for p, lo, hi in zip(parts, bounds, bounds[1:]):
            p.accumulate(g[_along(axis, lo, hi)])

    return Var(out_data, parents=tuple(parts), backward=backward, op="concat")


def batch_norm(x, p: tensor.BatchNormParams, training: bool = False) -> Var:
    """Per-channel batch normalization, scale * x_hat + shift.

    Training mode normalizes with the batch mean and biased variance, folds
    both into the running buffers, and backpropagates through them (Ioffe &
    Szegedy, 2015): dx = a * (g - mean(g) - x_hat * mean(g * x_hat)) per
    channel, with a = scale / sqrt(var + eps), built in one buffer.

    Eval mode is one per-channel affine with the running statistics, x * a + b
    with b = shift - running_mean * a, built in place; it differs from the
    unfolded (x - mean) * inv_std * scale + shift by float rounding. Its
    backward is dx = g * a.

    In both modes the node keeps only the per-channel mean and inv_std it
    normalized with. The backward rebuilds x_hat from the input, which the
    node keeps as its parent, with the training forward's own two rounded
    steps, x - mean and then * inv_std, so it is the forward's x_hat bit for
    bit.
    """
    x = as_var(x)
    if x.data.ndim != 4 or x.data.shape[1] != p.channels:
        raise DimensionError(
            f"batch norm over {p.channels} channels needs NCHW, got {x.data.shape}"
        )
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        xhat = x.data - mean[:, None, None]
        var = np.square(xhat).sum(axis=(0, 2, 3)) / (x.data.size // p.channels)
        p.running_mean[:] = (1 - p.momentum) * p.running_mean + p.momentum * mean
        p.running_var[:] = (1 - p.momentum) * p.running_var + p.momentum * var
        inv_std = 1.0 / np.sqrt(var + p.eps)
        xhat *= inv_std[:, None, None]
        out_data = p.scale.data[:, None, None] * xhat + p.shift.data[:, None, None]
    else:
        mean = p.running_mean.copy()
        inv_std = 1.0 / np.sqrt(p.running_var + p.eps)
        a = p.scale.data * inv_std
        out_data = x.data * a[:, None, None]
        out_data += (p.shift.data - mean * a)[:, None, None]

    def backward(g):
        x_hat = x.data - mean[:, None, None]
        x_hat *= inv_std[:, None, None]
        g_scale = (g * x_hat).sum(axis=(0, 2, 3))
        g_shift = g.sum(axis=(0, 2, 3))
        p.scale.accumulate(g_scale)
        p.shift.accumulate(g_shift)
        a = (p.scale.data * inv_std)[:, None, None]
        if not training:
            return x.accumulate(g * a)
        count = g.size // g.shape[1]
        dx = x_hat * (g_scale / count)[:, None, None]
        np.subtract(g, dx, out=dx)
        dx -= (g_shift / count)[:, None, None]
        dx *= a
        x.accumulate(dx)

    return Var(out_data, parents=(x, p.scale, p.shift), backward=backward, op="batch_norm")


def rprelu(o, p) -> Var:
    """Channel-wise shifted parametric ReLU with learnable gamma/zeta/beta.

    With shifted = o - gamma, the output is max(shifted, 0) + beta *
    min(shifted, 0) + zeta and the slope is 1 where shifted > 0, beta
    elsewhere; neither pass branches on the data. The backward recomputes
    ``shifted`` from o and gamma, which nothing changes before the optimizer
    step, so the tape keeps no copy of it.
    """
    o = as_var(o)
    gamma, zeta, beta = p.gamma, p.zeta, p.beta
    if o.data.ndim != 4 or o.data.shape[1] != gamma.data.shape[0]:
        raise DimensionError(
            f"rprelu over {gamma.data.shape[0]} channels needs NCHW, got {o.data.shape}"
        )
    bc = beta.data[:, None, None]
    shifted = o.data - gamma.data[:, None, None]
    out_data = _leaky(shifted, bc)
    out_data += zeta.data[:, None, None]

    def backward(g):
        shifted = o.data - gamma.data[:, None, None]
        g_slope = _leaky_slope(shifted, bc)
        g_slope *= g
        o.accumulate(g_slope)
        gamma.accumulate(-g_slope.sum(axis=(0, 2, 3)))
        zeta.accumulate(g.sum(axis=(0, 2, 3)))
        beta.accumulate((g * np.minimum(shifted, 0)).sum(axis=(0, 2, 3)))

    return Var(out_data, parents=(o, gamma, zeta, beta), backward=backward, op="rprelu")


def _conv_adjoint(x: Var, w: np.ndarray, g, cols, stride: int, padding: int):
    """The gradients (dw, dx) of y = conv(x, w) for the weight array ``w``
    and the input x, given g; dx is None when x needs no gradient. The
    caller accumulates both.

    ``cols`` is the (N*OH*OW, kh*kw*C) window matrix that the forward
    convolved, padded cells included, in :func:`tensor.im2col`'s layout. The
    adjoint runs channel-major: g is transposed once to (C_out, N*OH*OW), the
    weight gradient is that times ``cols``, and the input gradient is the
    transposed weight matrix times it, a tap-major (kh*kw*C, N*OH*OW) window
    matrix that :func:`tensor.col2im` adds back onto x's grid, in a new array.
    """
    c_out, _, kh, kw = w.shape
    g_t = g.transpose(1, 0, 2, 3).reshape(c_out, -1)
    dw = tensor.matrix_to_weight(g_t @ cols, w.shape)
    if not x.requires_grad:
        return dw, None
    dcols = tensor.weight_matrix(w).T @ g_t
    return dw, tensor.col2im(dcols, x.data.shape, kh, kw, stride, padding)


def conv2d(x, w, stride: int = 1, padding: int = 0) -> Var:
    """Full-precision convolution (block-residual and teacher paths). The
    node keeps the forward's window matrix for its backward, which therefore
    gathers nothing."""
    x, w = as_var(x), as_var(w)
    out_data, cols = tensor.conv2d_with_cols(x.data, w.data, stride, padding)

    def backward(g):
        dw, dx = _conv_adjoint(x, w.data, g, cols, stride, padding)
        w.accumulate(dw)
        x.accumulate(dx)

    return Var(out_data, parents=(x, w), backward=backward, op="conv2d")


_SMOOTH_MODE = False


@contextlib.contextmanager
def smooth_mode():
    """Switches the 1-bit ops' forward from sign to F (:func:`binary.smooth_sign`),
    whose gradient the straight-through rule is, for the ``with`` block."""
    global _SMOOTH_MODE
    prev = _SMOOTH_MODE
    _SMOOTH_MODE = True
    try:
        yield
    finally:
        _SMOOTH_MODE = prev


def _binarize(x: np.ndarray) -> np.ndarray:
    """sign(x), or F(x) in smooth mode."""
    return binary.smooth_sign(x) if _SMOOTH_MODE else binary.sign_forward(x)


def _ste_accumulate(x: Var, dx, p, dwq, w_sign, alpha) -> None:
    """The gradient tail of every 1-bit op, given dx, the gradient of the
    op's binarized input (None when x needs none), and dwq, that of
    alpha * w_sign in the latent layout.

    dx is multiplied in place by :func:`binary.ste_grad` of x, the gradient
    of the sign, and accumulated into x. The latent weights w get the weight
    rule: alpha is the mean |w| over the fan-in, expanded on p.fan_axes, so
    the gradient of w is the straight-through factor times alpha plus the
    fan-in sum of dwq * w_sign times sign(w) / fan_in. Every term is
    elementwise or a reduction over one output channel's fan-in.
    """
    if dx is not None:
        dx *= binary.ste_grad(x.data)
        x.accumulate(dx)
    w = p.latent_weights.data
    dalpha = (dwq * w_sign).sum(axis=p.fan_axes, keepdims=True)
    p.latent_weights.accumulate(
        dwq * alpha * binary.ste_grad(w) + dalpha * np.sign(w) / p.fan_in)


def binary_conv2d(x, p: binary.BinaryConv2dParams) -> Var:
    """1-bit convolution of sign(x) with alpha * sign(w), one node whose
    parents are x itself and the latent weights.

    The forward is the packed XNOR-popcount kernel on x, whose rows take the
    bits x >= 0 and pad with +1, the sign of 0, so no ±1 copy of x is made.
    The node signs the latent weights once, and keeps them and the kernel's
    packed sign rows, one bit per window cell. The backward unpacks those
    rows into the ±1 window matrix (no second gather), runs
    :func:`conv2d`'s adjoint on it with alpha * sign(w), and hands both
    gradients to :func:`_ste_accumulate`. In smooth mode sign becomes F: the
    forward is :func:`tensor.conv2d_with_cols` of F(x) and F(w), zero-padded
    since F(0) = 0, times alpha, and the backward reads that forward's window
    matrix in place of the unpacked rows; the rest is the same code, since
    F's derivative is the same factor.
    """
    x = as_var(x)
    w = p.latent_weights
    w_sign = _binarize(w.data)
    smooth = _SMOOTH_MODE
    if smooth:
        out_data, cols = tensor.conv2d_with_cols(binary.smooth_sign(x.data), w_sign,
                                                 p.stride, p.padding)
        out_data *= p.alpha[:, None, None]
    else:
        out_data, _, rows = binary.binary_conv2d_packed(x.data, p)

    def backward(g):
        alpha = np.expand_dims(p.alpha, p.fan_axes)
        window = cols if smooth else binary.unpack_signs(rows)
        dwq, dx = _conv_adjoint(x, w_sign * alpha, g, window, p.stride, p.padding)
        _ste_accumulate(x, dx, p, dwq, w_sign, alpha)

    return Var(out_data, parents=(x, w), backward=backward, op="binary_conv2d")


def binary_deconv2d(x, p: binary.BinaryConv2dParams) -> Var:
    """Transposed 1-bit convolution of sign(x) with alpha * sign(w), the one
    implementation of the layer, one node whose parents are x itself and the
    latent weights.

    The forward is :func:`tensor.conv_transpose2d` on sign(x) and sign(w),
    which checks the operands: an exact integer sum, scaled by alpha once per
    output channel, so a cell whose sum is 0 is exactly 0. The node keeps
    sign(x), sign(w) and the alpha of its forward. The adjoint of a
    transposed convolution is the plain one, so the backward is
    :func:`tensor.conv2d_with_cols` of g with alpha * sign(w): its output is
    the gradient of sign(x), and its window matrix of g times sign(x) is the
    weight gradient; :func:`_ste_accumulate` takes both. In smooth mode F
    takes the place of sign on both operands.
    """
    if not p.transposed:
        raise DimensionError("binary_deconv2d requires transposed params")
    x = as_var(x)
    xs = _binarize(x.data)
    w = p.latent_weights
    w_sign = _binarize(w.data)
    alpha = np.expand_dims(p.alpha, p.fan_axes)  # (1, C_out, 1, 1)
    out_data = tensor.conv_transpose2d(xs, w_sign, p.stride, p.padding) * alpha

    def backward(g):
        dxs, g_cols = tensor.conv2d_with_cols(g, w_sign * alpha, p.stride, p.padding)
        xs_mat = xs.transpose(0, 2, 3, 1).reshape(-1, w_sign.shape[0])
        dwq = tensor.matrix_to_weight(xs_mat.T @ g_cols, w_sign.shape)
        _ste_accumulate(x, dxs if x.requires_grad else None, p, dwq, w_sign, alpha)

    return Var(out_data, parents=(x, w), backward=backward, op="binary_deconv2d")


def _check_rows(x: Var, features: int, name: str) -> None:
    """DimensionError unless x is an (N, ``features``) matrix."""
    if x.data.ndim != 2 or x.data.shape[1] != features:
        raise DimensionError(f"{name} over {features} features needs (N, {features}), "
                             f"got {x.data.shape}")


def linear(x, w, b) -> Var:
    """Full-precision fully connected layer, x (N,F), w (O,F), b (O,)."""
    x, w, b = as_var(x), as_var(w), as_var(b)
    _check_rows(x, w.data.shape[1], "linear")

    def backward(g):
        x.accumulate(g @ w.data)
        w.accumulate(g.T @ x.data)
        b.accumulate(g.sum(axis=0))

    return Var(x.data @ w.data.T + b.data, parents=(x, w, b), backward=backward, op="linear")


def binary_linear(x, p) -> Var:
    """Fully connected layer on sign(x) and alpha * sign(w); p is BinaryLinearParams.

    One node whose parents are x itself and the latent weights. The forward
    is the exact ±1 sum sign(x) @ sign(w).T, scaled by alpha once per output,
    so an output whose sum is 0 is exactly 0, as in the 1-bit convolutions.
    The node keeps sign(x) and sign(w). The backward is the plain linear
    adjoint on alpha * sign(w) and sign(x), whose gradients
    :func:`_ste_accumulate` takes. In smooth mode F takes the place of sign
    on both operands.
    """
    x = as_var(x)
    _check_rows(x, p.latent_weights.data.shape[1], "binary_linear")
    xs = _binarize(x.data)
    w = p.latent_weights
    w_sign = _binarize(w.data)
    alpha = p.alpha[:, None]  # (out, 1)
    out_data = xs @ w_sign.T
    out_data *= alpha.T

    def backward(g):
        dxs = g @ (w_sign * alpha) if x.requires_grad else None
        _ste_accumulate(x, dxs, p, g.T @ xs, w_sign, alpha)

    return Var(out_data, parents=(x, w), backward=backward, op="binary_linear")


def global_avg_pool(x) -> Var:
    """(N, C, H, W) -> (N, C) spatial mean."""
    x = as_var(x)
    n, c, h, w = tensor.check_nchw(x.data).shape

    def backward(g):
        x.accumulate(np.broadcast_to(g[:, :, None, None] / (h * w), x.data.shape).copy())

    return Var(x.data.mean(axis=(2, 3)), parents=(x,), backward=backward, op="gap")


def l1_loss(pred, target) -> Var:
    """Mean absolute difference; subgradient 0 at exact ties."""
    pred, target = as_var(pred), as_var(target)
    if pred.data.shape != target.data.shape:
        raise DimensionError(
            f"l1 loss shapes differ: {pred.data.shape} vs {target.data.shape}"
        )
    diff = pred.data - target.data
    n = diff.size
    out_data = np.abs(diff).mean()

    def backward(g):
        s = np.sign(diff) * (float(g) / n)
        pred.accumulate(s)
        target.accumulate(-s)

    return Var(out_data, parents=(pred, target), backward=backward, op="l1_loss")


def soft_argmax(h) -> Var:
    """Expected (x, y, z) under a softmax over each (N, J, D, H, W) slice."""
    h = as_var(h)
    if h.data.ndim != 5:
        raise DimensionError(f"soft_argmax needs rank-5 (N, J, D, H, W), got {h.data.shape}")
    n, j, d, hh, ww = h.data.shape
    flat = h.data.reshape(n, j, -1)
    prob = tensor.softmax(flat)
    zz, yy, xx = np.meshgrid(np.arange(d), np.arange(hh), np.arange(ww), indexing="ij")
    coords = np.stack([xx.ravel(), yy.ravel(), zz.ravel()]).astype(h.data.dtype)  # (3, DHW)
    out_data = prob @ coords.T  # (N, J, 3)

    def backward(g):
        # d out_c / d h = p * (coord_c - out_c)
        dh = np.zeros_like(flat)
        for c in range(3):
            dh += g[:, :, c:c + 1] * prob * (coords[c][None, None, :] - out_data[:, :, c:c + 1])
        h.accumulate(dh.reshape(h.data.shape))

    return Var(out_data, parents=(h,), backward=backward, op="soft_argmax")
