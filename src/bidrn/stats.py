"""Parameter and operation accounting.

Convention: one multiply-accumulate counts as one operation, binarized
parameters weigh 1/32 of full-precision, and binarized operations weigh 1/64.
BatchNorm and RPReLU are counted as full-precision elementwise work
(2 operations per element each).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import ConfigError
from .layers import BlockResidualMode, NetworkConfig, module_out_shape
from .tensor import conv_out_extent


@dataclass
class LayerDesc:
    kind: str  # conv | deconv | linear | bn | rprelu
    binarized: bool = False
    c_in: int = 0
    c_out: int = 0
    kernel: int = 1
    stride: int = 1
    padding: int = 0
    bias: bool = False


@dataclass
class ModelStats:
    params_fp: int = 0
    params_bin_latent: int = 0
    ops_fp: int = 0
    ops_bin: int = 0

    @property
    def params_effective(self) -> float:
        return self.params_fp + self.params_bin_latent / 32

    @property
    def ops_effective(self) -> float:
        return self.ops_fp + self.ops_bin / 64

    @property
    def params_effective_m(self) -> float:
        return self.params_effective / 1e6

    @property
    def ops_effective_g(self) -> float:
        return self.ops_effective / 1e9

    def add(self, params: int, ops: int, binarized: bool):
        if binarized:
            self.params_bin_latent += params
            self.ops_bin += ops
        else:
            self.params_fp += params
            self.ops_fp += ops

    def to_dict(self) -> dict:
        return {
            "params_fp": self.params_fp,
            "params_bin_latent": self.params_bin_latent,
            "ops_fp": self.ops_fp,
            "ops_bin": self.ops_bin,
            "params_effective_M": self.params_effective_m,
            "ops_effective_G": self.ops_effective_g,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def count_layer(desc: LayerDesc, in_shape):
    """Returns (params, ops, is_binarized) for one layer at the given (C, H, W)."""
    c, h, w = in_shape
    if desc.kind == "conv":
        if desc.c_in != c:
            raise ConfigError(f"conv expects {desc.c_in} channels, got {c}")
        params = desc.c_out * desc.c_in * desc.kernel ** 2
        oh = conv_out_extent(h, desc.kernel, desc.stride, desc.padding)
        ow = conv_out_extent(w, desc.kernel, desc.stride, desc.padding)
        return params, params * oh * ow, desc.binarized
    if desc.kind == "deconv":
        if desc.c_in != c:
            raise ConfigError(f"deconv expects {desc.c_in} channels, got {c}")
        params = desc.c_out * desc.c_in * desc.kernel ** 2
        oh = (h - 1) * desc.stride - 2 * desc.padding + desc.kernel
        ow = (w - 1) * desc.stride - 2 * desc.padding + desc.kernel
        # counted by output extent
        return params, params * oh * ow, desc.binarized
    if desc.kind == "linear":
        params = desc.c_out * desc.c_in + (desc.c_out if desc.bias else 0)
        return params, desc.c_out * desc.c_in, desc.binarized
    if desc.kind == "bn":
        return 2 * c, 2 * c * h * w, False
    if desc.kind == "rprelu":
        return 3 * c, 2 * c * h * w, False
    raise ConfigError(f"unknown layer kind {desc.kind!r}")


def _lcr_layers(channels: int, stride: int):
    return [
        LayerDesc("conv", binarized=True, c_in=channels, c_out=channels,
                  kernel=3, stride=stride, padding=1),
        LayerDesc("rprelu", c_in=channels, c_out=channels),
        LayerDesc("bn", c_in=channels, c_out=channels),
    ]


def enumerate_layers(cfg: NetworkConfig):
    """Yields (name, LayerDesc, in_shape) over every counted layer."""
    shape = tuple(cfg.input_shape)
    for bi, (spec, br_mode) in enumerate(cfg.blocks):
        c, h, w = shape
        out_shape = module_out_shape(spec, shape)
        plan = spec.plan()
        for i, (_, ch, stride) in enumerate(plan.branches):
            after = (ch, h // stride, w // stride)
            for desc in _lcr_layers(ch, stride):
                yield f"block{bi}.branch{i}.{desc.kind}", desc, \
                    (ch, h, w) if desc.kind == "conv" else after
        if plan.out_bn:
            yield f"block{bi}.out_bn", LayerDesc("bn"), out_shape
        if br_mode is not BlockResidualMode.NONE:
            binarized = br_mode is BlockResidualMode.BINARIZED_1X1
            yield f"block{bi}.block_residual", LayerDesc(
                "conv", binarized=binarized, c_in=c, c_out=spec.out_channels,
                kernel=1), (c, *out_shape[1:])
        shape = out_shape
    if cfg.head_out > 0:
        yield "head.linear", LayerDesc("linear", c_in=shape[0], c_out=cfg.head_out,
                                       bias=True), shape


def model_stats(cfg: NetworkConfig) -> ModelStats:
    cfg.validate()
    stats = ModelStats()
    for _, desc, in_shape in enumerate_layers(cfg):
        params, ops_, binarized = count_layer(desc, in_shape)
        stats.add(params, ops_, binarized)
    return stats
