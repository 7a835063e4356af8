"""Residual modules and network assembly.

The building block is a binarized 3x3 convolution wrapped with a
full-precision shortcut (RPReLU on the 1-bit output, add the pre-activation,
batch-normalize). Four dimension-matching variants cover spatial
downscaling, channel fusion up/down, and combined downsampling. They differ
only in their BranchPlan, which one table derives from the module kind and
which building, the forward pass, stats and the shape laws all read. The
branches of a module that all read its input run their convs as one packed
call per group (see :func:`lcr_fanout`). A per-block 1x1 shortcut
(full-precision or binarized) closes the dual-residual block.
"""

from __future__ import annotations

import contextlib
import enum
import functools
from dataclasses import dataclass

import numpy as np

from . import ops
from .autograd import Parameter, Var, as_var, no_tape
from .binary import BinaryConv2dParams
from .errors import ConfigError, DimensionError
from .tensor import BatchNormParams, check_nchw, conv_out_extent


@dataclass
class RPReLUParams:
    gamma: Parameter
    zeta: Parameter
    beta: Parameter

    @classmethod
    def create(cls, channels: int, dtype=np.float32) -> "RPReLUParams":
        # beta follows the PReLU convention; gamma/zeta start as no-ops
        return cls(gamma=Parameter(np.zeros(channels), dtype=dtype),
                   zeta=Parameter(np.zeros(channels), dtype=dtype),
                   beta=Parameter(np.full(channels, 0.25), dtype=dtype))

    @property
    def channels(self) -> int:
        return self.gamma.data.shape[0]

    def state(self, name: str) -> dict:
        return {f"{name}.gamma": self.gamma, f"{name}.zeta": self.zeta, f"{name}.beta": self.beta}


@dataclass
class LinearParams:
    weight: Parameter  # (out_features, in_features)
    bias: Parameter

    def state(self, name: str) -> dict:
        return {f"{name}.weight": self.weight, f"{name}.bias": self.bias}


@dataclass
class LcrLayer:
    """One binarized conv plus its shortcut machinery."""

    conv: BinaryConv2dParams
    rprelu: RPReLUParams
    bn: BatchNormParams

    @classmethod
    def create(cls, channels: int, stride: int = 1,
               rng: np.random.Generator | None = None, dtype=np.float32) -> "LcrLayer":
        return cls(
            conv=BinaryConv2dParams.create(channels, channels, 3, stride=stride,
                                           padding=1, rng=rng, dtype=dtype),
            rprelu=RPReLUParams.create(channels, dtype=dtype),
            bn=BatchNormParams.create(channels, dtype=dtype),
        )

    def layers(self, prefix: str) -> list:
        return [(f"{prefix}conv", self.conv), (f"{prefix}rprelu", self.rprelu),
                (f"{prefix}bn", self.bn)]


class ModuleKind(str, enum.Enum):
    BASE_LCR = "base_lcr"
    DOWN_SCALE = "down_scale"
    FUSION_UP = "fusion_up"
    FUSION_DOWN = "fusion_down"
    DOWN_SAMPLE = "down_sample"


class BlockResidualMode(str, enum.Enum):
    NONE = "none"
    FULL_PRECISION_1X1 = "fp1x1"
    BINARIZED_1X1 = "bin1x1"


@dataclass(frozen=True)
class BranchPlan:
    """Branch geometry of one residual module.

    ``branches`` holds one ``(name, channels, stride)`` per LCR branch, where
    ``name`` prefixes the branch's parameter names. With ``split`` set, branch
    i reads channel half i of the input; otherwise every branch reads all of
    it. ``combine`` joins the branch outputs: "identity" (one branch),
    "concat" along channels, or "sum". ``out_bn`` adds a BatchNorm after it.
    """

    split: bool
    branches: tuple
    combine: str
    out_bn: bool

    @property
    def out_channels(self) -> int:
        channels = [ch for _, ch, _ in self.branches]
        return sum(channels) if self.combine == "concat" else channels[0]

    @property
    def stride(self) -> int:
        return self.branches[0][2]


_PLANS = {
    ModuleKind.BASE_LCR: lambda c, k: BranchPlan(
        False, (("lcr", c, 1),), "identity", False),
    ModuleKind.DOWN_SCALE: lambda c, k: BranchPlan(
        False, (("lcr", c, 2),), "identity", False),
    ModuleKind.FUSION_UP: lambda c, k: BranchPlan(
        False, (("a", c, 1), ("b", c, 1)), "concat", True),
    ModuleKind.FUSION_DOWN: lambda c, k: BranchPlan(
        True, (("a", c // 2, 1), ("b", c // 2, 1)), "sum", True),
    ModuleKind.DOWN_SAMPLE: lambda c, k: BranchPlan(
        False, tuple((f"br{i}", c, 2) for i in range(k)), "concat", True),
}


def branch_plan(kind: ModuleKind, in_channels: int, branches: int = 2) -> BranchPlan:
    """The branch geometry of a module kind at ``in_channels`` input channels;
    ``branches`` is the down-sample fan-out and is ignored by the other kinds."""
    if kind is ModuleKind.FUSION_DOWN and in_channels % 2:
        raise ConfigError(f"fusion_down needs an even input channel count, got {in_channels}")
    if kind is ModuleKind.DOWN_SAMPLE and branches not in (2, 4):
        raise ConfigError(f"down_sample supports 2 or 4 branches, got {branches}")
    return _PLANS[kind](in_channels, branches)


@dataclass
class ModuleSpec:
    kind: ModuleKind
    in_channels: int
    out_channels: int
    spatial_stride: int = 1
    branches: int = 2  # down_sample fan-out (2 or 4)

    def plan(self) -> BranchPlan:
        return branch_plan(self.kind, self.in_channels, self.branches)

    def validate(self):
        plan = self.plan()
        if (self.out_channels, self.spatial_stride) != (plan.out_channels, plan.stride):
            raise ConfigError(
                f"{self.kind.value}: invalid geometry in={self.in_channels} "
                f"out={self.out_channels} stride={self.spatial_stride} "
                f"branches={self.branches}; expected out={plan.out_channels} "
                f"stride={plan.stride}"
            )


def preact_fn(name: str):
    try:
        return ops.PREACT[name]
    except KeyError:
        raise ConfigError(f"unknown pre-activation {name!r}") from None


def lcr_forward(x, layer: LcrLayer, preact: str = "hardtanh",
                training: bool = False) -> Var:
    """Local-convolution residual: BN(RPReLU(binconv(a)) + shortcut(a)) with
    a = preact(x); a strided conv average-pools the shortcut to match."""
    return lcr_fanout(x, [layer], preact, training)[0]


# A packed conv XORs one word of every (window row, weight row) pair into one
# uint64 buffer. Fan-out branches stack their weights into one call while that
# buffer, C_out * N*OH*OW * 8 bytes summed over the group, stays within 1 MiB:
# past that, one stacked call measured slower than a call per branch.
_XOR_BUFFER_BYTES = 1 << 20


def _fanout_groups(x: np.ndarray, layers_: list) -> list:
    """``layers_`` split in order into the groups whose convs run as one
    packed call on ``x``; a branch too wide to share the buffer is a group
    of one."""
    n, _, h, w = check_nchw(x).shape
    groups, group_bytes = [], 0
    for layer in layers_:
        conv = layer.conv
        rows = n * conv_out_extent(h, conv.kernel, conv.stride, conv.padding) \
            * conv_out_extent(w, conv.kernel, conv.stride, conv.padding)
        size = conv.out_channels * rows * 8
        if groups and group_bytes + size <= _XOR_BUFFER_BYTES:
            groups[-1].append(layer)
            group_bytes += size
        else:
            groups.append([layer])
            group_bytes = size
    return groups


def lcr_fanout(x, layers_: list, preact: str = "hardtanh",
               training: bool = False) -> list:
    """:func:`lcr_forward` of each layer in ``layers_`` on the same x, one
    output per layer. Each branch builds its own preactivation and sign
    nodes, so gradients reach x in the order that branch-by-branch calls
    give, but the convs run as one :func:`ops.binary_conv2d` call, which
    gathers and packs the sign rows once."""
    x = as_var(x)
    for layer in layers_:
        s = layer.conv.stride
        if s > 1:
            _, _, h, w = x.data.shape
            if h % s or w % s:
                raise DimensionError(f"stride {s} requires spatial extent divisible by {s}, "
                                     f"got {h}x{w}")
    acts = [preact_fn(preact)(x) for _ in layers_]
    outs = []
    for a, o, layer in zip(acts, ops.binary_conv2d(acts, [lr.conv for lr in layers_]), layers_):
        s = layer.conv.stride
        shortcut = ops.avg_pool(a, s, s) if s > 1 else a
        outs.append(ops.batch_norm(ops.add(ops.rprelu(o, layer.rprelu), shortcut),
                                   layer.bn, training))
    return outs


@dataclass
class ResidualModule:
    """LCR branches laid out by a BranchPlan, plus the optional output BN."""

    plan: BranchPlan
    branches: list  # one LcrLayer per plan branch
    out_bn: BatchNormParams | None = None

    def forward(self, x, preact: str = "hardtanh", training: bool = False) -> Var:
        x = as_var(x)
        if self.plan.split:
            c = x.data.shape[1]
            if c % 2:
                raise DimensionError(f"channel split requires an even channel count, got {c}")
            inputs = [ops.slice(x, 1, 0, c // 2), ops.slice(x, 1, c // 2, c)]
            outs = [lcr_forward(xi, layer, preact, training)
                    for xi, layer in zip(inputs, self.branches)]
        else:
            outs = [out for group in _fanout_groups(x.data, self.branches)
                    for out in lcr_fanout(x, group, preact, training)]
        if self.plan.combine == "concat":
            out = ops.concat(outs)
        elif self.plan.combine == "sum":
            out = functools.reduce(ops.add, outs)
        else:
            out = outs[0]
        if self.out_bn is not None:
            out = ops.batch_norm(out, self.out_bn, training)
        return out


@dataclass
class BlockResidual:
    """Per-block 1x1 shortcut; pools first when spatial stride is needed."""

    mode: BlockResidualMode
    stride: int = 1
    fp_weights: Parameter | None = None
    bin_conv: BinaryConv2dParams | None = None

    @classmethod
    def create(cls, mode: BlockResidualMode, in_channels: int, out_channels: int,
               stride: int, rng: np.random.Generator | None = None,
               dtype=np.float32) -> "BlockResidual | None":
        if mode is BlockResidualMode.NONE:
            return None
        rng = rng or np.random.default_rng(0)
        if mode is BlockResidualMode.FULL_PRECISION_1X1:
            bound = np.sqrt(6.0 / in_channels)
            w = rng.uniform(-bound, bound, size=(out_channels, in_channels, 1, 1))
            return cls(mode=mode, stride=stride, fp_weights=Parameter(w, dtype=dtype))
        return cls(mode=mode, stride=stride,
                   bin_conv=BinaryConv2dParams.create(out_channels, in_channels, 1,
                                                      rng=rng, dtype=dtype))

    def forward(self, x, training: bool = False) -> Var:
        x = as_var(x)
        if self.stride > 1:
            x = ops.avg_pool(x, self.stride, self.stride)
        if self.mode is BlockResidualMode.FULL_PRECISION_1X1:
            return ops.conv2d(x, self.fp_weights)
        return ops.binary_conv2d(x, self.bin_conv)


@dataclass
class BidrbBlock:
    """Main path of residual modules plus an optional block shortcut."""

    modules: list
    residual: BlockResidual | None

    def forward(self, x, preact: str = "hardtanh", training: bool = False) -> Var:
        x = as_var(x)
        main = x
        for mod in self.modules:
            main = mod.forward(main, preact, training)
        if self.residual is None:
            return main
        return ops.add(main, self.residual.forward(x, training))


def build_module(spec: ModuleSpec, rng: np.random.Generator,
                 dtype=np.float32) -> ResidualModule:
    """Branches draw their weights from ``rng`` in plan order."""
    spec.validate()
    plan = spec.plan()
    branches = [LcrLayer.create(ch, stride, rng, dtype) for _, ch, stride in plan.branches]
    out_bn = BatchNormParams.create(plan.out_channels, dtype) if plan.out_bn else None
    return ResidualModule(plan, branches, out_bn)


def module_out_shape(spec: ModuleSpec, in_shape):
    """(C, H, W) -> (C, H, W) after the module; raises on a broken chain."""
    c, h, w = in_shape
    if c != spec.in_channels:
        raise ConfigError(
            f"{spec.kind.value}: expects {spec.in_channels} channels, chain has {c}"
        )
    plan = spec.plan()
    s = plan.stride
    if h % s or w % s:
        raise ConfigError(
            f"{spec.kind.value}: stride {s} needs spatial extent divisible by {s}, "
            f"chain has {h}x{w}"
        )
    return (plan.out_channels, h // s, w // s)


@dataclass
class NetworkConfig:
    input_shape: tuple  # (C, H, W)
    blocks: list  # list of (ModuleSpec, BlockResidualMode)
    preact: str = "hardtanh"
    seed: int = 0
    head_out: int = 14

    def validate(self):
        shape = tuple(self.input_shape)
        if len(shape) != 3 or min(shape) < 1:
            raise ConfigError(f"input_shape must be (C, H, W) >= 1, got {shape}")
        if not isinstance(self.preact, str) or self.preact not in ops.PREACT:
            raise ConfigError(f"unknown pre-activation {self.preact!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.head_out < 0:
            raise ConfigError(f"head out_features must be >= 0, got {self.head_out}")
        for i, (spec, _) in enumerate(self.blocks):
            try:
                spec.validate()
                shape = module_out_shape(spec, shape)
            except ConfigError as e:
                raise ConfigError(f"block {i}: {e}") from None
        return shape


@dataclass
class Network:
    config: NetworkConfig
    blocks: list  # BidrbBlock
    head: LinearParams

    def forward(self, x, training: bool = False) -> Var:
        """The network's output for x. An eval forward (``training`` False)
        whose input needs no gradient records no tape: it runs under
        :class:`autograd.no_tape`, so every intermediate is freed once the
        next op has read it, and the output has no parents. A training
        forward, or one whose input requires a gradient (as gradcheck
        differentiates it), records the tape as every op does."""
        out = as_var(x)
        with contextlib.nullcontext() if training or out.requires_grad else no_tape():
            for block in self.blocks:
                out = block.forward(out, self.config.preact, training)
            pooled = ops.global_avg_pool(out)
            return ops.linear(pooled, self.head.weight, self.head.bias)

    @functools.cached_property
    def layers(self) -> list:
        """(name, component) per layer in forward order, one list per block and
        one for the head, walked once: build_network fixes the structure. The one
        walk that names layers; a name prefixes its component's state() entries."""
        groups = []
        for i, block in enumerate(self.blocks):
            group = []
            for j, module in enumerate(block.modules):
                for (name, _, _), lcr in zip(module.plan.branches, module.branches):
                    group += lcr.layers(f"block{i}.m{j}.{name}.")
                if module.out_bn is not None:
                    group.append((f"block{i}.m{j}.out_bn", module.out_bn))
            r = block.residual
            if r is not None:
                group.append((f"block{i}.br.fp1x1", r.fp_weights) if r.fp_weights is not None
                             else (f"block{i}.br.bin1x1", r.bin_conv))
            groups.append(group)
        return groups + [[("head", self.head)]]

    def state(self) -> dict:
        """Every Parameter and buffer (a plain array: the BatchNorm running
        statistics) by checkpoint name, layer by layer: a bare Parameter is
        its layer's one entry, any other component names its own entries."""
        d = {}
        for group in self.layers:
            for name, component in group:
                if isinstance(component, Parameter):
                    d[name] = component
                else:
                    d.update(component.state(name))
        return d

    def named_parameters(self) -> dict:
        return {k: v for k, v in self.state().items() if isinstance(v, Parameter)}

    def named_buffers(self) -> dict:
        return {k: v for k, v in self.state().items() if not isinstance(v, Parameter)}

    def zero_grad(self):
        for v in self.state().values():
            if isinstance(v, Parameter):
                v.zero_grad()


def build_network(cfg: NetworkConfig, dtype=np.float32) -> Network:
    final_shape = cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    blocks = []
    for spec, br_mode in cfg.blocks:
        module = build_module(spec, rng, dtype)
        residual = BlockResidual.create(br_mode, spec.in_channels,
                                        spec.out_channels, spec.spatial_stride,
                                        rng, dtype)
        blocks.append(BidrbBlock(modules=[module], residual=residual))
    c_last = final_shape[0]
    bound = np.sqrt(6.0 / c_last)
    head_w = Parameter(rng.uniform(-bound, bound, size=(cfg.head_out, c_last)), dtype=dtype)
    head = LinearParams(head_w, Parameter(np.zeros(cfg.head_out), dtype=dtype))
    return Network(config=cfg, blocks=blocks, head=head)

