"""Parameter and operation accounting of the built network, layer by layer,
each named by the state() prefix of its entries (``block0.m0.a.conv``).

Convention: one multiply-accumulate counts as one operation, binarized
parameters weigh 1/32 of full-precision, and binarized operations weigh 1/64.
BatchNorm and RPReLU are counted as full-precision elementwise work
(2 operations per element each).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .autograd import Parameter
from .binary import BinaryConv2dParams
from .errors import ConfigError
from .layers import LinearParams, NetworkConfig, build_network
from .tensor import BatchNormParams, conv_out_extent, conv_transpose_extent


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
            "params_effective_M": self.params_effective / 1e6,
            "ops_effective_G": self.ops_effective / 1e9,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"


def count_layer(desc: LayerDesc, in_shape):
    """Returns (params, ops, is_binarized) for one layer at the given (C, H, W)."""
    c, h, w = in_shape
    if desc.kind in ("conv", "deconv"):
        if desc.c_in != c:
            raise ConfigError(f"{desc.kind} expects {desc.c_in} channels, got {c}")
        params = desc.c_out * desc.c_in * desc.kernel ** 2
        extent = conv_out_extent if desc.kind == "conv" else conv_transpose_extent
        oh = extent(h, desc.kernel, desc.stride, desc.padding)
        ow = extent(w, desc.kernel, desc.stride, desc.padding)
        return params, params * oh * ow, desc.binarized
    if desc.kind == "linear":
        params = desc.c_out * desc.c_in + (desc.c_out if desc.bias else 0)
        return params, desc.c_out * desc.c_in, desc.binarized
    if desc.kind == "bn":
        return 2 * c, 2 * c * h * w, False
    if desc.kind == "rprelu":
        return 3 * c, 2 * c * h * w, False
    raise ConfigError(f"unknown layer kind {desc.kind!r}")


def _describe(component) -> LayerDesc:
    """The LayerDesc of one layer of a built network, read off its weights."""
    if isinstance(component, BinaryConv2dParams):
        c_out, c_in, kernel, _ = component.latent_weights.data.shape
        return LayerDesc("conv", True, c_in, c_out, kernel, component.stride,
                         component.padding)
    if isinstance(component, Parameter):  # the full-precision 1x1 block shortcut
        c_out, c_in, kernel, _ = component.data.shape
        return LayerDesc("conv", False, c_in, c_out, kernel)
    if isinstance(component, LinearParams):
        c_out, c_in = component.weight.data.shape
        return LayerDesc("linear", c_in=c_in, c_out=c_out, bias=True)
    kind = "bn" if isinstance(component, BatchNormParams) else "rprelu"
    return LayerDesc(kind, c_in=component.channels, c_out=component.channels)


def enumerate_layers(cfg: NetworkConfig):
    """Yields (name, LayerDesc, in_shape) over build_network(cfg).layers: a
    block's layers at its output extent, which its strided convs reach from
    its input extent, and no head without outputs."""
    _, h, w = cfg.input_shape
    for group in build_network(cfg).layers:
        descs = [(name, _describe(component)) for name, component in group]
        stride = max(desc.stride for _, desc in descs)
        h, w = h // stride, w // stride
        for name, desc in descs:
            if desc.c_out:
                yield name, desc, (desc.c_in, h * desc.stride, w * desc.stride)


def model_stats(cfg: NetworkConfig) -> ModelStats:
    stats = ModelStats()
    for _, desc, in_shape in enumerate_layers(cfg):
        stats.add(*count_layer(desc, in_shape))
    return stats
