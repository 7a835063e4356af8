"""Finite-difference verification of every backward rule.

Checks run in float64 with the 1-bit ops switched to their smooth surrogate
(see :func:`bidrn.ops.smooth_mode`), which turns the straight-through
backward into the exact gradient of the forward and makes central differences
a valid oracle. Layers build float32; each rule hands every Parameter, inputs
included, to :func:`check_params`, which casts it to float64, while BatchNorm
running statistics stay float32, constants to the finite differences. Inputs
are sampled away from the kinks of the surrogate, the preactivations, RPReLU
and L1. Every op of :mod:`bidrn.ops` builds a node in at least one rule.
"""

from __future__ import annotations

import functools

import numpy as np

from . import binary, boxnet, layers, ops
from .autograd import Parameter, Var
from .tensor import BatchNormParams, conv_transpose_extent

REL_TOL = 1e-3
ABS_FLOOR = 1e-5
FD_EPS = 1e-6


def _away_from_kinks(rng, shape, kinks=(0.0, 1.0, -1.0), band=0.05, span=1.8):
    """Uniform samples nudged out of a band around each kink."""
    x = rng.uniform(-span / 2, span / 2, size=shape)
    for k in kinks:
        close = np.abs(x - k) < band
        x = np.where(close, x + np.sign(x - k + 1e-12) * band * 2, x)
    return x


def finite_difference(loss_fn, arr: np.ndarray) -> np.ndarray:
    """Central differences, step FD_EPS, of a scalar loss with respect to arr (in place)."""
    grad = np.zeros_like(arr)
    flat = arr.ravel()
    gflat = grad.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + FD_EPS
        up = loss_fn()
        flat[i] = orig - FD_EPS
        down = loss_fn()
        flat[i] = orig
        gflat[i] = (up - down) / (2 * FD_EPS)
    return grad


def max_mismatch(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """Worst error, relative with an absolute floor.

    A result <= REL_TOL is equivalent to |a - n| <= REL_TOL*|n| + ABS_FLOOR
    elementwise.
    """
    denom = np.abs(numeric) + ABS_FLOOR / REL_TOL
    return float(np.max(np.abs(analytic - numeric) / denom))


def check_params(loss_builder, params: dict) -> float:
    """Returns the worst relative error across all listed parameters.

    Each parameter's data is first replaced by a float64 copy. ``loss_builder``
    rebuilds the forward graph and returns a scalar Var; the parameter data
    arrays are perturbed in place for the numeric side.
    """
    with ops.smooth_mode():
        for p in params.values():
            p.data = p.data.astype(np.float64)
            p.zero_grad()
        loss = loss_builder()
        loss.backward()
        worst = 0.0
        for name, p in params.items():
            analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
            numeric = finite_difference(lambda: float(loss_builder().data), p.data)
            worst = max(worst, max_mismatch(analytic, numeric))
    return worst


def _rng(seed):
    return np.random.default_rng(seed)


def check_conv2d(seed=0):
    rng = _rng(seed)
    x = Parameter(rng.standard_normal((2, 3, 5, 5)))
    w = Parameter(rng.standard_normal((4, 3, 3, 3)) * 0.5)
    t = rng.standard_normal((2, 4, 3, 3))
    return check_params(
        lambda: ops.l1_loss(ops.conv2d(x, w, stride=2, padding=1), t),
        {"x": x, "w": w})


def check_binary_conv2d(seed=0):
    rng = _rng(seed)
    x = Parameter(_away_from_kinks(rng, (1, 2, 5, 5)))
    p = binary.BinaryConv2dParams.create(3, 2, 3, stride=1, padding=1, rng=rng)
    p.latent_weights.data[...] = _away_from_kinks(rng, p.latent_weights.data.shape)
    t = rng.standard_normal((1, 3, 5, 5))
    return check_params(
        lambda: ops.l1_loss(ops.binary_conv2d(x, p), t),
        {"x": x, "w": p.latent_weights})


def check_binary_deconv2d(seed=0, kernel=4):
    """Stride 2, padding 1. Kernel 3 is not a multiple of the stride, so the
    phase GEMM of tensor.conv_transpose2d pads it with zero taps."""
    rng = _rng(seed)
    x = Parameter(_away_from_kinks(rng, (1, 2, 3, 3)))
    p = binary.BinaryConv2dParams.create(3, 2, kernel, stride=2, padding=1, rng=rng,
                                         transposed=True)
    p.latent_weights.data[...] = _away_from_kinks(rng, p.latent_weights.data.shape)
    out = conv_transpose_extent(3, kernel, 2, 1)
    t = rng.standard_normal((1, 3, out, out))
    return check_params(
        lambda: ops.l1_loss(ops.binary_deconv2d(x, p), t),
        {"x": x, "w": p.latent_weights})


def check_binary_linear(seed=0):
    rng = _rng(seed)
    x = Parameter(_away_from_kinks(rng, (3, 6)))
    p = binary.BinaryLinearParams.create(4, 6, rng)
    p.latent_weights.data[...] = _away_from_kinks(rng, p.latent_weights.data.shape)
    t = rng.standard_normal((3, 4))
    return check_params(
        lambda: ops.l1_loss(ops.binary_linear(x, p), t),
        {"x": x, "w": p.latent_weights})


def check_avg_pool(seed=0):
    rng = _rng(seed)
    x = Parameter(rng.standard_normal((2, 3, 4, 4)))
    t = rng.standard_normal((2, 3, 2, 2))
    return check_params(lambda: ops.l1_loss(ops.avg_pool(x, 2, 2), t), {"x": x})


def check_concat_split(seed=0):
    rng = _rng(seed)
    x = Parameter(rng.standard_normal((1, 4, 3, 3)))
    t = rng.standard_normal((1, 4, 3, 5))

    def loss():
        a, b = ops.slice(x, 1, 0, 2), ops.slice(x, 1, 2, 4)
        swapped = ops.concat([b, a])
        return ops.l1_loss(ops.concat([swapped, ops.slice(swapped, 3, 1, 3)], axis=3), t)

    return check_params(loss, {"x": x})


def check_batch_norm(seed=0, training=False):
    """Training mode runs on an input with mean 1 and standard deviation 2."""
    rng = _rng(seed)
    x = Parameter(rng.standard_normal((2, 3, 4, 4)))
    p = BatchNormParams.create(3)
    p.running_mean[:] = rng.standard_normal(3) * 0.3
    p.running_var[:] = 0.5 + rng.random(3)
    if training:
        x.data = 1 + 2 * x.data
        p.scale.data[:] = 0.5 + rng.random(3)
    t = rng.standard_normal((2, 3, 4, 4))
    return check_params(
        lambda: ops.l1_loss(ops.batch_norm(x, p, training=training), t),
        {"x": x, "scale": p.scale, "shift": p.shift})


def check_rprelu(seed=0):
    rng = _rng(seed)
    x = Parameter(rng.standard_normal((2, 3, 4, 4)))
    p = layers.RPReLUParams.create(3)
    p.gamma.data[:] = rng.standard_normal(3) * 0.1
    p.zeta.data[:] = rng.standard_normal(3) * 0.1
    t = rng.standard_normal((2, 3, 4, 4))
    return check_params(
        lambda: ops.l1_loss(ops.rprelu(x, p), t),
        {"x": x, "gamma": p.gamma, "zeta": p.zeta, "beta": p.beta})


def check_preact(seed=0, name="hardtanh"):
    """``ops.PREACT[name]`` on both sides of its kinks, 0 or ±1."""
    rng = _rng(seed)
    x = Parameter(_away_from_kinks(rng, (2, 2, 3, 3), span=3.0))
    t = rng.standard_normal((2, 2, 3, 3))
    return check_params(lambda: ops.l1_loss(ops.PREACT[name](x), t), {"x": x})


def check_linear(seed=0):
    rng = _rng(seed)
    x = Parameter(rng.standard_normal((3, 5)))
    w = Parameter(rng.standard_normal((2, 5)))
    b = Parameter(rng.standard_normal(2))
    t = rng.standard_normal((3, 2))
    return check_params(lambda: ops.l1_loss(ops.linear(x, w, b), t),
                        {"x": x, "w": w, "b": b})


def check_soft_argmax(seed=0):
    rng = _rng(seed)
    x = Parameter(rng.standard_normal((1, 2, 1, 4, 4)))
    t = rng.standard_normal((1, 2, 3))
    return check_params(lambda: ops.l1_loss(ops.soft_argmax(x), t), {"x": x})


def check_exp_gap(seed=0):
    rng = _rng(seed)
    x = Parameter(rng.standard_normal((2, 3, 4, 4)) * 0.5)
    t = rng.standard_normal((2, 3))
    return check_params(lambda: ops.l1_loss(ops.exp(ops.global_avg_pool(x)), t),
                        {"x": x})


def check_lcr_layer(seed=0):
    rng = _rng(seed)
    x = Parameter(_away_from_kinks(rng, (1, 2, 4, 4), span=1.6))
    layer = layers.LcrLayer.create(2, 1, rng)
    layer.conv.latent_weights.data[...] = _away_from_kinks(
        rng, layer.conv.latent_weights.data.shape)
    t = rng.standard_normal((1, 2, 4, 4))
    params = {"x": x}
    params.update((k, v) for k, v in layers.state_of(layer.layers("")).items()
                  if isinstance(v, Parameter))
    return check_params(
        lambda: ops.l1_loss(layers.lcr_forward(x, layer), t), params)


def check_network(seed=0):
    """Composed three-block network against finite differences."""
    rng = _rng(seed)
    cfg = layers.NetworkConfig(
        input_shape=(2, 4, 4),
        blocks=[
            (layers.ModuleSpec(layers.ModuleKind.FUSION_UP, 2, 4),
             layers.BlockResidualMode.FULL_PRECISION_1X1),
            (layers.ModuleSpec(layers.ModuleKind.FUSION_DOWN, 4, 2),
             layers.BlockResidualMode.BINARIZED_1X1),
            (layers.ModuleSpec(layers.ModuleKind.DOWN_SAMPLE, 2, 4, 2),
             layers.BlockResidualMode.NONE),
        ],
        seed=seed,
        head_out=3,
    )
    net = layers.build_network(cfg)
    params = net.named_parameters()
    for name, p in params.items():
        if name.endswith("conv.latent") or name.endswith("bin1x1.latent"):
            p.data[...] = _away_from_kinks(rng, p.data.shape)
    x = Parameter(_away_from_kinks(rng, (1, 2, 4, 4), span=1.6))
    t = rng.standard_normal((1, 3))
    params["x"] = x
    return check_params(
        lambda: ops.l1_loss(net.forward(x, training=False), t), params)


def check_boxnet(seed=0):
    """L_box gradient through the box head on a tiny config."""
    rng = _rng(seed)
    p = boxnet.BoxNetParams.create(feature_channels=3, joints=2, depth=1,
                                   deconv_channels=4, seed=seed)
    params = p.named_parameters()
    for q in params.values():
        q.data[...] = _away_from_kinks(rng, q.data.shape, span=1.2)
    x = Parameter(_away_from_kinks(rng, (1, 3, 4, 4), span=1.6))
    target = rng.uniform(0.5, 3.0, size=(1, boxnet.NUM_BOXES, 4))

    def loss():
        centers, sizes = boxnet.box_head_forward(x, p)
        return boxnet.box_loss(boxnet.boxes_tensor(centers, sizes), target)

    params["x"] = x
    return check_params(loss, params)


ALL_CHECKS = {
    "conv2d": check_conv2d,
    "binary_conv2d": check_binary_conv2d,
    "binary_deconv2d": check_binary_deconv2d,
    "binary_deconv2d_k3": functools.partial(check_binary_deconv2d, kernel=3),
    "binary_linear": check_binary_linear,
    "avg_pool": check_avg_pool,
    "concat_split": check_concat_split,
    "batch_norm": check_batch_norm,
    "batch_norm_train": functools.partial(check_batch_norm, training=True),
    "rprelu": check_rprelu,
    "hardtanh": check_preact,
    "relu": functools.partial(check_preact, name="relu"),
    "prelu": functools.partial(check_preact, name="prelu"),
    "linear": check_linear,
    "soft_argmax": check_soft_argmax,
    "exp_gap": check_exp_gap,
    "lcr_layer": check_lcr_layer,
    "network_3block": check_network,
    "boxnet_loss": check_boxnet,
}


def run_all(seed: int = 0) -> dict:
    """Worst normalized error per rule; <= REL_TOL means the rule passes."""
    return {name: fn(seed) for name, fn in ALL_CHECKS.items()}
