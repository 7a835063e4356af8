"""Adam optimizer, the training step and the synthetic teacher-student task.

The toy task replaces the full-scale datasets: a frozen random full-precision
teacher maps 3x32x32 noise images to a target vector split into "param",
"joint" and "box" segments, and the loss is the sum of three mean-L1 terms
over those segments. :func:`step` is the one training step: :func:`train_toy`
loops it over the task's batches, and :mod:`bidrn.bench` runs it on the
paper-width network.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .autograd import Var
from .errors import ConfigError, DimensionError, TrainingError
from .layers import Network, NetworkConfig, build_network

SEGMENTS = {"param": 6, "joint": 6, "box": 2}  # toy analogue of the loss split


@dataclass
class Adam:
    """Standard Adam with bias correction over a named parameter dict.

    ``m`` and ``v`` are one flat array each, in the parameters' common float
    dtype, laid out in ``params`` order; ``slices[name]`` is a parameter's
    part of them. A step gathers every gradient into one flat array, runs the
    moment and update expressions once over it, and subtracts each
    parameter's slice of the update from its data in place. A parameter with
    no gradient keeps its data and its slices of ``m`` and ``v``. ``lr`` must
    be a finite number >= 0.
    """

    params: dict
    lr: float = 1e-4
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    step_count: int = 0
    m: np.ndarray = field(init=False)
    v: np.ndarray = field(init=False)
    slices: dict = field(init=False)

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr >= 0):
            raise ConfigError(f"learning rate {self.lr} is not a finite number >= 0")
        self.slices, start = {}, 0
        for name, p in self.params.items():
            self.slices[name] = slice(start, start + p.data.size)
            start += p.data.size
        dtype = np.result_type(np.float32, *(p.data.dtype for p in self.params.values()))
        self.m = np.zeros(start, dtype=dtype)
        self.v = np.zeros(start, dtype=dtype)
        self._grad = np.empty(start, dtype=dtype)

    def step(self):
        for name, p in self.params.items():
            if p.grad is not None and p.grad.shape != p.data.shape:
                raise DimensionError(
                    f"{name}: gradient shape {p.grad.shape} does not match {p.data.shape}"
                )
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1 - b1 ** self.step_count
        bc2 = 1 - b2 ** self.step_count
        kept = [(sl, self.m[sl].copy(), self.v[sl].copy())
                for name, sl in self.slices.items() if self.params[name].grad is None]
        g = self._grad
        np.concatenate([np.zeros(p.data.size) if p.grad is None else p.grad.ravel()
                        for p in self.params.values()], out=g)
        # b1 * m + (1 - b1) * g and b2 * v + (1 - b2) * g * g, rounded as written.
        self.m *= b1
        self.m += (1 - b1) * g
        self.v *= b2
        self.v += (1 - b2) * g * g
        update = self.lr * (self.m / bc1) / (np.sqrt(self.v / bc2) + self.eps)
        for sl, m, v in kept:
            self.m[sl], self.v[sl] = m, v
        for name, p in self.params.items():
            if p.grad is not None:
                p.data -= update[self.slices[name]].reshape(p.data.shape)


def adam_step(optimizer: Adam, net: Network | None = None):
    """One update. ``net`` is unused: the per-channel weight scales derive
    from the latent weights, so none are refreshed here. Its only caller is
    perfbench's copy of the training step; the package calls :func:`step`."""
    optimizer.step()


@dataclass
class SyntheticTask:
    """Frozen random teacher plus a deterministic sample stream."""

    conv_w: np.ndarray  # (8, 3, 3, 3)
    lin_w: np.ndarray   # (target, 8)
    lin_b: np.ndarray
    rng: np.random.Generator
    input_shape: tuple = (3, 32, 32)

    @property
    def target_len(self) -> int:
        return self.lin_w.shape[0]

    def teacher(self, x: np.ndarray) -> np.ndarray:
        from .tensor import conv2d_reference
        h = conv2d_reference(x, self.conv_w, stride=2, padding=1)
        h = np.tanh(h)
        feat = h.mean(axis=(2, 3))
        return feat @ self.lin_w.T + self.lin_b

    def sample(self, batch: int):
        x = self.rng.standard_normal((batch, *self.input_shape)).astype(np.float32)
        return x, self.teacher(x).astype(np.float32)


def make_synthetic_task(seed: int, segments: dict | None = None) -> SyntheticTask:
    segments = segments or SEGMENTS
    target_len = sum(segments.values())
    rng = np.random.default_rng(seed)
    conv_w = rng.normal(0, 0.3, size=(8, 3, 3, 3)).astype(np.float32)
    lin_w = rng.normal(0, 0.8, size=(target_len, 8)).astype(np.float32)
    lin_b = rng.normal(0, 0.5, size=target_len).astype(np.float32)
    return SyntheticTask(conv_w=conv_w, lin_w=lin_w, lin_b=lin_b,
                         rng=np.random.default_rng(seed + 1))


def segment_losses(pred: Var, target: np.ndarray, segments: dict | None = None):
    """Per-segment mean-L1 losses over the partitioned output vector."""
    segments = segments or SEGMENTS
    losses = {}
    start = 0
    for name, width in segments.items():
        losses[name] = ops.l1_loss(ops.slice(pred, 1, start, start + width),
                                   target[:, start:start + width])
        start += width
    return losses


def step(net: Network, opt: Adam, x: np.ndarray, target: np.ndarray):
    """One training step of ``net`` on the batch ``(x, target)``: zero the
    gradients, run the training forward, sum :func:`segment_losses` over
    ``SEGMENTS``, backpropagate and take one ``opt`` step.

    Returns the trace row (step, loss_total, loss_param, loss_joint,
    loss_box), where step is ``opt.step_count`` before the update. A
    non-finite loss raises TrainingError before the backward, so the
    weights, ``opt.m``, ``opt.v`` and ``opt.step_count`` stay unchanged.
    """
    net.zero_grad()
    losses = segment_losses(net.forward(x, training=True), target)
    total = functools.reduce(ops.add, losses.values())
    if not np.isfinite(total.data):
        raise TrainingError(opt.step_count, f"loss diverged to {total.data}")
    row = (opt.step_count, float(total.data), *(float(part.data) for part in losses.values()))
    total.backward()
    opt.step()
    return row


def train_toy(cfg: NetworkConfig, steps: int, seed: int = 7, batch: int = 8, lr: float = 1e-2):
    """Minimize the three-part L1 loss on the synthetic task: ``steps``
    calls of :func:`step` on fresh batches of the task's sample stream.

    Returns (trace, network); trace rows are :func:`step`'s. A config whose
    input_shape is not the task's raises ConfigError.
    """
    task = make_synthetic_task(seed)
    if tuple(cfg.input_shape) != task.input_shape:
        raise ConfigError(f"config input_shape {tuple(cfg.input_shape)} differs from "
                          f"the synthetic task's {task.input_shape}")
    net = build_network(dataclasses.replace(cfg, head_out=task.target_len))
    opt = Adam(net.named_parameters(), lr=lr)
    return [step(net, opt, *task.sample(batch)) for _ in range(steps)], net


def trace_to_csv(trace) -> str:
    names = ",".join(f"loss_{k}" for k in SEGMENTS)
    lines = [f"step,loss_total,{names}"]
    for row in trace:
        lines.append(",".join(f"{v:.6f}" if i else str(v) for i, v in enumerate(row)))
    return "\n".join(lines) + "\n"
