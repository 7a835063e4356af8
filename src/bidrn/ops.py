"""Differentiable operations built on the tape in :mod:`bidrn.autograd`.

Forward math delegates to :mod:`bidrn.tensor` and :mod:`bidrn.binary`;
each op wires up the matching backward rule. Sign nodes use the
piecewise-quadratic straight-through gradient, hardtanh uses the clamp mask,
and the weight-binarization backward combines the straight-through factor
with the exact derivative of the per-channel scale.
"""

from __future__ import annotations

import builtins

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


def scale(a, k: float) -> Var:
    a = as_var(a)

    def backward(g):
        a.accumulate(g * k)

    return Var(a.data * k, parents=(a,), backward=backward, op="scale")


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
    out_data = tensor.hardtanh_forward(x.data)

    def backward(g):
        mask = (x.data > -1.0) & (x.data < 1.0)
        x.accumulate(g * mask)

    return Var(out_data, parents=(x,), backward=backward, op="hardtanh")


def relu(x) -> Var:
    x = as_var(x)

    def backward(g):
        x.accumulate(g * (x.data > 0))

    return Var(np.maximum(x.data, 0), parents=(x,), backward=backward, op="relu")


def prelu(x, slope: float = 0.25) -> Var:
    x = as_var(x)
    out_data = np.where(x.data > 0, x.data, slope * x.data)

    def backward(g):
        x.accumulate(g * np.where(x.data > 0, 1.0, slope))

    return Var(out_data, parents=(x,), backward=backward, op="prelu")


PREACT = {"hardtanh": hardtanh, "relu": relu, "prelu": prelu}


def avg_pool(x, window: int = 2, stride: int | None = None) -> Var:
    x = as_var(x)
    if stride is None:
        stride = window
    out_data = tensor.avg_pool2d(x.data, window, stride)

    def backward(g):
        n, c, oh, ow = g.shape
        dx = np.zeros_like(x.data)
        inv = 1.0 / (window * window)
        for i in range(window):
            for j in range(window):
                dx[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride] += g * inv
        x.accumulate(dx)

    return Var(out_data, parents=(x,), backward=backward, op="avg_pool")


def _along(axis: int, start: int, stop: int) -> tuple:
    """Index selecting start:stop on ``axis`` and everything on the axes before it."""
    return (builtins.slice(None),) * axis + (builtins.slice(start, stop),)


def slice(x, axis: int, start: int, stop: int) -> Var:
    """x[start:stop] along ``axis``; the backward scatters g into zeros."""
    x = as_var(x)
    if not 0 <= start < stop <= x.data.shape[axis]:
        raise DimensionError(
            f"slice {start}:{stop} out of range for axis {axis} of {x.data.shape}"
        )
    idx = _along(axis, start, stop)

    def backward(g):
        full = np.zeros_like(x.data)
        full[idx] = g
        x.accumulate(full)

    return Var(x.data[idx].copy(), parents=(x,), backward=backward, op="slice")


def concat(parts, axis: int = 1) -> Var:
    """Joins the parts along ``axis``; the backward hands each part its slice of g."""
    parts = [as_var(p) for p in parts]
    try:
        out_data = np.concatenate([p.data for p in parts], axis=axis)
    except ValueError:
        raise DimensionError(
            f"cannot concatenate {[p.data.shape for p in parts]} along axis {axis}"
        ) from None
    bounds = np.cumsum([0] + [p.data.shape[axis] for p in parts])

    def backward(g):
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            p.accumulate(g[_along(axis, lo, hi)])

    return Var(out_data, parents=tuple(parts), backward=backward, op="concat")


def batch_norm(x, p: tensor.BatchNormParams, training: bool = False) -> Var:
    """Normalize with running statistics (detached); training mode first folds
    the batch statistics into the running buffers."""
    x = as_var(x)
    if x.data.shape[1] != p.channels:
        raise DimensionError(
            f"batch norm over {p.channels} channels got input {x.data.shape}"
        )
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        p.running_mean[:] = (1 - p.momentum) * p.running_mean + p.momentum * mean
        p.running_var[:] = (1 - p.momentum) * p.running_var + p.momentum * var
    mean = p.running_mean.copy()
    inv_std = 1.0 / np.sqrt(p.running_var + p.eps)
    xhat = (x.data - mean[:, None, None]) * inv_std[:, None, None]
    out_data = p.scale.data[:, None, None] * xhat + p.shift.data[:, None, None]

    def backward(g):
        p.scale.accumulate((g * xhat).sum(axis=(0, 2, 3)))
        p.shift.accumulate(g.sum(axis=(0, 2, 3)))
        x.accumulate(g * (p.scale.data * inv_std)[:, None, None])

    return Var(out_data, parents=(x, p.scale, p.shift), backward=backward, op="batch_norm")


def rprelu(o, p) -> Var:
    """Channel-wise shifted parametric ReLU with learnable gamma/zeta/beta."""
    o = as_var(o)
    gamma, zeta, beta = p.gamma, p.zeta, p.beta
    if o.data.shape[1] != gamma.data.shape[0]:
        raise DimensionError(
            f"rprelu over {gamma.data.shape[0]} channels got input {o.data.shape}"
        )
    gc = gamma.data[:, None, None]
    shifted = o.data - gc
    mask = o.data > gc
    out_data = np.where(mask, shifted, beta.data[:, None, None] * shifted) + \
        zeta.data[:, None, None]

    def backward(g):
        slope = np.where(mask, 1.0, beta.data[:, None, None])
        o.accumulate(g * slope)
        gamma.accumulate(-(g * slope).sum(axis=(0, 2, 3)))
        zeta.accumulate(g.sum(axis=(0, 2, 3)))
        beta.accumulate((g * np.where(mask, 0.0, shifted)).sum(axis=(0, 2, 3)))

    return Var(out_data, parents=(o, gamma, zeta, beta), backward=backward, op="rprelu")


def conv2d(x, w, stride: int = 1, padding: int = 0) -> Var:
    """Full-precision convolution (block-residual and teacher paths)."""
    x, w = as_var(x), as_var(w)
    out_data = tensor.conv2d_reference(x.data, w.data, stride, padding)
    c_out, _, kh, kw = w.data.shape

    def backward(g):
        cols = tensor.im2col(x.data, kh, kw, stride, padding)
        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        w.accumulate(tensor.matrix_to_weight(g_mat.T @ cols, w.data.shape))
        dcols = g_mat @ tensor.weight_matrix(w.data)
        x.accumulate(tensor.col2im(dcols, x.data.shape, kh, kw, stride, padding))

    return Var(out_data, parents=(x, w), backward=backward, op="conv2d")


def sign(x) -> Var:
    """Binarization node; backward is the straight-through surrogate gradient."""
    x = as_var(x)
    out_data = binary.binarize_value(x.data)

    def backward(g):
        x.accumulate(g * binary.ste_grad(x.data))

    return Var(out_data, parents=(x,), backward=backward, op="sign")


def binary_conv2d(x, p: binary.BinaryConv2dParams, detach_alpha: bool = False) -> Var:
    """XNOR-popcount convolution with straight-through backward.

    Gradients reach the latent weights through alpha * sign(w): the sign factor
    uses the surrogate gradient, and unless ``detach_alpha`` is set the exact
    derivative of alpha (sign(w) / fan_in) is added. In smooth mode the packed
    path is bypassed and sign is replaced by its surrogate F so the backward
    becomes the exact gradient of the forward.

    The forward keeps only the integer accumulator and the weight signs. The
    backward builds its activation operands from the layer input: F and
    ste_grad run once over x and im2col gathers them, so no array the size of
    the im2col matrix outlives the forward.
    """
    x = as_var(x)
    w = p.latent_weights
    c_out = p.out_channels
    fan_in = p.fan_in
    kh = p.kernel
    w_mat = tensor.weight_matrix(w.data)
    smooth = binary.smooth_mode_active()
    binarize = binary.smooth_sign if smooth else binary.sign_forward
    w_val = binarize(w_mat)
    if smooth:
        if not p.frozen:
            binary.refresh_alpha(p)
        n, _, h, wd = x.data.shape
        oh = tensor.conv_out_extent(h, kh, p.stride, p.padding)
        ow = tensor.conv_out_extent(wd, kh, p.stride, p.padding)
        cols = tensor.im2col(x.data, kh, kh, p.stride, p.padding)
        acc = binarize(cols) @ w_val.T
        out_data = (acc * p.alpha[None, :]).reshape(n, oh, ow, c_out) \
            .transpose(0, 3, 1, 2)
    else:
        out_data, acc = binary.binary_conv2d_packed(x.data, p)

    def backward(g):
        def gather(a, pad_value=0.0):
            return tensor.im2col(a, kh, kh, p.stride, p.padding, pad_value=pad_value)

        g_mat = g.transpose(0, 2, 3, 1).reshape(-1, c_out)
        ds = g_mat * p.alpha[None, :]
        # Padded cells hold F(0), as in the forward's gather of x.
        a_val = gather(binarize(x.data), float(binarize(0)))
        dw = (ds.T @ a_val) * binary.ste_grad(w_mat)
        if not detach_alpha:
            dalpha = (g_mat * np.asarray(acc, dtype=g.dtype)).sum(axis=0)
            dw += dalpha[:, None] * np.sign(w_mat) / fan_in
        w.accumulate(tensor.matrix_to_weight(dw, w.data.shape))
        # The STE factor of a padded cell is arbitrary: col2im crops it.
        dcols = (ds @ w_val) * gather(binary.ste_grad(x.data))
        x.accumulate(tensor.col2im(dcols, x.data.shape, kh, kh, p.stride, p.padding))

    return Var(out_data, parents=(x, w), backward=backward, op="binary_conv2d")


def binary_deconv2d(x, p: binary.BinaryConv2dParams, out_stride: int | None = None,
                    detach_alpha: bool = False) -> Var:
    """Transposed 1-bit convolution; the forward equals binary.binary_deconv2d."""
    x = as_var(x)
    w = p.latent_weights
    stride, oh, ow = binary.deconv_geometry(x.data, p, out_stride)
    c_in, c_out, kh, kw = w.data.shape
    n, _, h, wd = x.data.shape
    fan_in = p.fan_in
    if not p.frozen:
        binary.refresh_alpha(p)
    x_val = binary.binarize_value(x.data)
    w_mat = tensor.weight_matrix(w.data)  # (c_in, kh*kw*c_out)
    w_val = binary.binarize_value(w_mat)
    alpha_cols = np.tile(p.alpha, kh * kw).astype(w.data.dtype)
    w_scaled = w_val * alpha_cols[None, :]
    x_mat = x_val.transpose(0, 2, 3, 1).reshape(-1, c_in)
    out_data = tensor.col2im(x_mat @ w_scaled, (n, c_out, oh, ow), kh, kw, stride, p.padding)

    def backward(g):
        g_cols = tensor.im2col(g, kh, kw, stride, p.padding)  # (n*h*wd, kh*kw*c_out)
        # grad wrt the alpha-scaled binarized weights, shape (c_in, kh*kw*c_out)
        g_ws = x_mat.T @ g_cols
        dw = g_ws * alpha_cols[None, :] * binary.ste_grad(w_mat)
        if not detach_alpha:
            dalpha = (g_ws * w_val).reshape(c_in, kh * kw, c_out).sum(axis=(0, 1))
            dw += np.tile(dalpha, kh * kw)[None, :] * np.sign(w_mat) / fan_in
        w.accumulate(tensor.matrix_to_weight(dw, w.data.shape))
        dx_mat = g_cols @ w_scaled.T
        dx = dx_mat.reshape(n, h, wd, c_in).transpose(0, 3, 1, 2)
        x.accumulate(dx * binary.ste_grad(x.data))

    return Var(out_data, parents=(x, w), backward=backward, op="binary_deconv2d")


def linear(x, w, b=None) -> Var:
    """Full-precision fully connected layer, x (N,F), w (O,F)."""
    x, w = as_var(x), as_var(w)
    out_data = x.data @ w.data.T
    parents = [x, w]
    if b is not None:
        b = as_var(b)
        out_data = out_data + b.data
        parents.append(b)

    def backward(g):
        x.accumulate(g @ w.data)
        w.accumulate(g.T @ x.data)
        if b is not None:
            b.accumulate(g.sum(axis=0))

    return Var(out_data, parents=tuple(parents), backward=backward, op="linear")


def binary_linear(x, p, detach_alpha: bool = False) -> Var:
    """Fully connected layer on sign(x) and alpha*sign(w); p is BinaryLinearParams."""
    x = as_var(x)
    w = p.latent_weights
    if not p.frozen:
        p.refresh_alpha()
    xs = binary.binarize_value(x.data)
    ws = binary.binarize_value(w.data)
    acc = xs @ ws.T
    out_data = acc * p.alpha[None, :]
    fan_in = w.data.shape[1]

    def backward(g):
        ds = g * p.alpha[None, :]
        dw = (ds.T @ xs) * binary.ste_grad(w.data)
        if not detach_alpha:
            dalpha = (g * acc).sum(axis=0)
            dw += dalpha[:, None] * np.sign(w.data) / fan_in
        w.accumulate(dw)
        x.accumulate((ds @ ws) * binary.ste_grad(x.data))

    return Var(out_data, parents=(x, w), backward=backward, op="binary_linear")


def global_avg_pool(x) -> Var:
    """(N, C, H, W) -> (N, C) spatial mean."""
    x = as_var(x)
    n, c, h, w = x.data.shape

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
    n, j, d, hh, ww = h.data.shape
    flat = h.data.reshape(n, j, -1)
    m = flat.max(axis=2, keepdims=True)
    e = np.exp(flat - m)
    prob = e / e.sum(axis=2, keepdims=True)
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
