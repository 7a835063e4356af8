"""Toy-scale binarized box-prediction head.

Joint heatmaps are predicted from the encoder feature by 1-bit convolutions,
concatenated back onto the feature, and upsampled by two 1-bit transposed
convolutions. A parameter-free soft-argmax reads off one center per box
(face plus two hands); box sizes come from pooled features through 1-bit
fully connected layers and a single final full-precision linear, exponentiated
so they stay positive.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import ops
from .autograd import Parameter, Var, as_var
from .binary import BinaryConv2dParams, BinaryLinearParams, fan_in_uniform
from .errors import DimensionError
from .layers import LinearParams, state_of
from .tensor import softmax

NUM_BOXES = 3  # face, left hand, right hand


@dataclass
class Heatmap:
    """Per-joint volumetric scores, values shaped (N, J, D, H, W)."""

    joints: int
    depth: int
    height: int
    width: int
    values: np.ndarray

    def normalized(self) -> np.ndarray:
        flat = self.values.reshape(*self.values.shape[:2], -1)
        return softmax(flat).reshape(self.values.shape)


@dataclass
class BoxNetParams:
    joints: int
    depth: int
    feature_channels: int
    heat_conv: BinaryConv2dParams       # feature -> feature, 3x3
    heat_proj: BinaryConv2dParams       # feature -> joints*depth, 1x1
    deconvs: list                       # two transposed 1-bit convs
    box_proj: BinaryConv2dParams        # deconv channels -> NUM_BOXES, 1x1
    size_linears: list                  # 1-bit FC layers
    final_linear: LinearParams          # the single full-precision linear

    @classmethod
    def create(cls, feature_channels: int = 8, joints: int = 4, depth: int = 1,
               deconv_channels: int = 8, seed: int = 0) -> "BoxNetParams":
        rng = np.random.default_rng(seed)
        jd = joints * depth
        deconv_in = jd + feature_channels
        deconvs = [
            BinaryConv2dParams.create(deconv_channels, deconv_in, 4, stride=2,
                                      padding=1, rng=rng, transposed=True),
            BinaryConv2dParams.create(deconv_channels, deconv_channels, 4, stride=2,
                                      padding=1, rng=rng, transposed=True),
        ]
        size_linears = [BinaryLinearParams.create(deconv_channels, deconv_channels, rng)]
        return cls(
            joints=joints,
            depth=depth,
            feature_channels=feature_channels,
            heat_conv=BinaryConv2dParams.create(feature_channels, feature_channels,
                                                3, padding=1, rng=rng),
            heat_proj=BinaryConv2dParams.create(jd, feature_channels, 1, rng=rng),
            deconvs=deconvs,
            box_proj=BinaryConv2dParams.create(NUM_BOXES, deconv_channels, 1, rng=rng),
            size_linears=size_linears,
            final_linear=LinearParams(
                fan_in_uniform((NUM_BOXES * 2, deconv_channels), deconv_channels, rng),
                Parameter(np.zeros(NUM_BOXES * 2))),
        )

    def named_parameters(self) -> dict:
        """Every Parameter by state name (:func:`layers.state_of`)."""
        return state_of([
            ("heat_conv", self.heat_conv), ("heat_proj", self.heat_proj),
            ("box_proj", self.box_proj), ("final_linear", self.final_linear),
            *((f"deconv{i}", p) for i, p in enumerate(self.deconvs)),
            *((f"size_linear{i}", p) for i, p in enumerate(self.size_linears))])

    def full_precision_linear_count(self) -> int:
        """Structural contract: everything 1-bit except the last linear."""
        count = 1 if isinstance(self.final_linear, LinearParams) else 0
        count += sum(1 for lin in self.size_linears
                     if not isinstance(lin, BinaryLinearParams))
        return count


def _heat_logits(feature: Var, p: BoxNetParams) -> Var:
    if feature.data.shape[1] != p.feature_channels:
        raise DimensionError(
            f"box net expects {p.feature_channels} feature channels, "
            f"got {feature.data.shape}"
        )
    h = ops.binary_conv2d(ops.hardtanh(feature), p.heat_conv)
    return ops.binary_conv2d(ops.hardtanh(h), p.heat_proj)


def predict_heatmaps(feature: np.ndarray, p: BoxNetParams) -> Heatmap:
    logits = _heat_logits(as_var(feature), p).data
    n, _, h, w = logits.shape
    values = logits.reshape(n, p.joints, p.depth, h, w)
    return Heatmap(joints=p.joints, depth=p.depth, height=h, width=w, values=values)


def soft_argmax(h: Heatmap) -> np.ndarray:
    """Expected (x, y, z) coordinates per joint, (N, J, 3)."""
    return ops.soft_argmax(Var(h.values)).data


def box_head_forward(feature, p: BoxNetParams):
    """Returns (centers, sizes) Vars shaped (N, NUM_BOXES, 2)."""
    feature = as_var(feature)
    heat = _heat_logits(feature, p)
    combined = ops.concat([heat, feature])
    up = combined
    for deconv in p.deconvs:
        up = ops.binary_deconv2d(ops.hardtanh(up), deconv)
    box_maps = ops.binary_conv2d(ops.hardtanh(up), p.box_proj)
    n, _, hh, ww = box_maps.data.shape
    coords = ops.soft_argmax(ops.reshape(box_maps, (n, NUM_BOXES, 1, hh, ww)))
    centers = ops.slice(coords, 2, 0, 2)
    pooled = ops.global_avg_pool(up)
    z = pooled
    for lin in p.size_linears:
        z = ops.binary_linear(z, lin)
    log_sizes = ops.linear(z, p.final_linear.weight, p.final_linear.bias)
    sizes = ops.reshape(ops.exp(log_sizes), (n, NUM_BOXES, 2))
    return centers, sizes


def box_loss(pred, target) -> Var:
    """Mean L1 over all center and size components; mismatched shapes raise
    DimensionError."""
    return ops.l1_loss(pred, target)


def boxes_tensor(centers, sizes) -> Var:
    """Stack centers and sizes into one (N, boxes, 4) tensor for the loss."""
    return ops.concat([centers, sizes], axis=2)
