"""Residual modules and network assembly.

The building block is a binarized 3x3 convolution wrapped with a
full-precision shortcut (RPReLU on the 1-bit output, add the pre-activation,
batch-normalize). Four dimension-matching variants cover spatial
downscaling, channel fusion up/down, and combined downsampling. They differ
only in their BranchPlan, which one table derives from the module kind and
which building, the forward pass, stats and the shape laws all read. The
branches of a module that all read its input share one preactivation, and
run their convs as one node, which signs it, and one packed call over
their weights joined by :func:`ops.concat` (see :func:`lcr_fanout`). A
per-block 1x1 shortcut (full-precision or binarized) closes the
dual-residual block.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import itertools
from dataclasses import dataclass, replace

import numpy as np

from . import ops
from .autograd import Parameter, Var, as_var, no_tape
from .binary import BinaryConv2dParams, fan_in_uniform
from .errors import ConfigError, DimensionError
from .tensor import BatchNormParams, check_nchw


@dataclass
class RPReLUParams:
    gamma: Parameter
    zeta: Parameter
    beta: Parameter

    @classmethod
    def create(cls, channels: int) -> "RPReLUParams":
        # beta follows the PReLU convention; gamma/zeta start as no-ops
        return cls(gamma=Parameter(np.zeros(channels)), zeta=Parameter(np.zeros(channels)),
                   beta=Parameter(np.full(channels, 0.25)))

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
               rng: np.random.Generator | None = None) -> "LcrLayer":
        return cls(
            conv=BinaryConv2dParams.create(channels, channels, 3, stride=stride,
                                           padding=1, rng=rng),
            rprelu=RPReLUParams.create(channels),
            bn=BatchNormParams.create(channels),
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


def state_of(pairs) -> dict:
    """State entries of (name, component) pairs, in order: a bare Parameter
    is its name's one entry; any other component's are its state(name)."""
    d = {}
    for name, component in pairs:
        if isinstance(component, Parameter):
            d[name] = component
        else:
            d.update(component.state(name))
    return d


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


def lcr_fanout(x, layers_: list, preact: str = "hardtanh",
               training: bool = False) -> list:
    """:func:`lcr_forward` of each layer in ``layers_`` on the same x, one
    output per layer. The layers share one preactivation a = preact(x), its
    pooled shortcut and one :func:`ops.binary_conv2d` call, which signs a
    once. With several layers its latent weights are theirs joined along
    C_out by :func:`ops.concat`, whose backward hands each layer its rows of
    the gradient, and each layer reads its channels of the output through
    :func:`ops.slice`. ±1 sums are exact and alpha is per channel, so every
    output equals the layer's own call bit for bit. The convs must share
    stride and padding; a kernel or C_in mismatch fails in the concat."""
    x = as_var(x)
    convs = [layer.conv for layer in layers_]
    geometry = {(c.stride, c.padding, c.transposed) for c in convs}
    if len(geometry) != 1:
        raise DimensionError(f"fan-out convs need one (stride, padding, transposed), "
                             f"got {sorted(geometry)}")
    stride = convs[0].stride
    _, _, h, w = x.data.shape
    if h % stride or w % stride:
        raise DimensionError(f"stride {stride} requires spatial extent divisible by "
                             f"{stride}, got {h}x{w}")
    a = preact_fn(preact)(x)
    if len(convs) == 1:
        outs = [ops.binary_conv2d(a, convs[0])]
    else:
        stacked = replace(convs[0], latent_weights=ops.concat(
            [c.latent_weights for c in convs], axis=0))
        y = ops.binary_conv2d(a, stacked)
        bounds = list(itertools.accumulate((c.out_channels for c in convs), initial=0))
        outs = [ops.slice(y, 1, lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    shortcut = ops.avg_pool(a, stride, stride) if stride > 1 else a
    return [ops.batch_norm(ops.add(ops.rprelu(o, layer.rprelu), shortcut), layer.bn, training)
            for o, layer in zip(outs, layers_)]


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
            outs = lcr_fanout(x, self.branches, preact, training)
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
    weights: Parameter | BinaryConv2dParams  # fp1x1: (C_out, C_in, 1, 1); bin1x1: 1-bit conv
    stride: int = 1

    @classmethod
    def create(cls, mode: BlockResidualMode, in_channels: int, out_channels: int,
               stride: int, rng: np.random.Generator | None = None) -> "BlockResidual | None":
        if mode is BlockResidualMode.NONE:
            return None
        if mode is BlockResidualMode.FULL_PRECISION_1X1:
            weights = fan_in_uniform((out_channels, in_channels, 1, 1), in_channels, rng)
        else:
            weights = BinaryConv2dParams.create(out_channels, in_channels, 1, rng=rng)
        return cls(mode=mode, weights=weights, stride=stride)

    def forward(self, x) -> Var:
        x = as_var(x)
        if self.stride > 1:
            x = ops.avg_pool(x, self.stride, self.stride)
        if self.mode is BlockResidualMode.FULL_PRECISION_1X1:
            return ops.conv2d(x, self.weights)
        return ops.binary_conv2d(x, self.weights)


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
        return ops.add(main, self.residual.forward(x))


def build_module(spec: ModuleSpec, rng: np.random.Generator) -> ResidualModule:
    """Branches draw their weights from ``rng`` in plan order."""
    spec.validate()
    plan = spec.plan()
    branches = [LcrLayer.create(ch, stride, rng) for _, ch, stride in plan.branches]
    out_bn = BatchNormParams.create(plan.out_channels) if plan.out_bn else None
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
        if not isinstance(self.preact, str):  # repr of any other value may not print
            raise ConfigError(f"pre-activation must be a name, got {type(self.preact).__name__}")
        if self.preact not in ops.PREACT:
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
        check_nchw(out.data, "network input")
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
                group.append((f"block{i}.br.{r.mode.value}", r.weights))
            groups.append(group)
        return groups + [[("head", self.head)]]

    def state(self) -> dict:
        """Every Parameter and buffer (a plain array: the BatchNorm running
        statistics) by checkpoint name, layer by layer (:func:`state_of`)."""
        return state_of(pair for group in self.layers for pair in group)

    def named_parameters(self) -> dict:
        return {k: v for k, v in self.state().items() if isinstance(v, Parameter)}

    @functools.cached_property
    def parameters(self) -> tuple:
        """Every Parameter in state order, collected once, as :attr:`layers` is."""
        return tuple(self.named_parameters().values())

    def named_buffers(self) -> dict:
        return {k: v for k, v in self.state().items() if not isinstance(v, Parameter)}

    def zero_grad(self):
        for p in self.parameters:
            p.zero_grad()


def build_network(cfg: NetworkConfig) -> Network:
    final_shape = cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    blocks = []
    for spec, br_mode in cfg.blocks:
        module = build_module(spec, rng)
        residual = BlockResidual.create(br_mode, spec.in_channels,
                                        spec.out_channels, spec.spatial_stride, rng)
        blocks.append(BidrbBlock(modules=[module], residual=residual))
    c_last = final_shape[0]
    head = LinearParams(fan_in_uniform((cfg.head_out, c_last), c_last, rng),
                        Parameter(np.zeros(cfg.head_out)))
    return Network(config=cfg, blocks=blocks, head=head)

