"""Adam optimizer and the synthetic teacher-student training harness.

The toy task replaces the full-scale datasets: a frozen random full-precision
teacher maps 3x32x32 noise images to a target vector split into "param",
"joint" and "box" segments, and the loss is the sum of three mean-L1 terms
over those segments.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .autograd import Var
from .errors import ConfigError, DimensionError, TrainingError
from .layers import Network, NetworkConfig, build_network

SEGMENTS = {"param": 6, "joint": 6, "box": 2}  # toy analogue of the loss split


@dataclass
class Adam:
    """Standard Adam with bias correction over a named parameter dict."""

    params: dict
    lr: float = 1e-4
    betas: tuple = (0.9, 0.999)
    eps: float = 1e-8
    step_count: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, p in self.params.items():
            self.m[name] = np.zeros_like(p.data)
            self.v[name] = np.zeros_like(p.data)

    def step(self):
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1 - b1 ** self.step_count
        bc2 = 1 - b2 ** self.step_count
        for name, p in self.params.items():
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise DimensionError(
                    f"{name}: gradient shape {g.shape} does not match {p.data.shape}"
                )
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / bc1
            v_hat = self.v[name] / bc2
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def adam_step(optimizer: Adam, net: Network | None = None):
    """One update. ``net`` is unused: the per-channel weight scales derive
    from the latent weights, so none are refreshed here."""
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


def train_toy(cfg: NetworkConfig, steps: int, seed: int = 7, batch: int = 8,
              lr: float = 1e-2, segments: dict | None = None):
    """Minimize the three-part L1 loss on the synthetic task.

    Returns (trace, network); trace rows are
    (step, loss_total, loss_param, loss_joint, loss_box). A config whose
    input_shape is not the task's raises ConfigError.
    """
    segments = segments or SEGMENTS
    task = make_synthetic_task(seed, segments)
    if tuple(cfg.input_shape) != task.input_shape:
        raise ConfigError(f"config input_shape {tuple(cfg.input_shape)} differs from "
                          f"the synthetic task's {task.input_shape}")
    net = build_network(dataclasses.replace(cfg, head_out=sum(segments.values())))
    opt = Adam(net.named_parameters(), lr=lr)
    trace = []
    for step in range(steps):
        x, target = task.sample(batch)
        net.zero_grad()
        pred = net.forward(x, training=True)
        losses = segment_losses(pred, target, segments)
        total = None
        for part in losses.values():
            total = part if total is None else ops.add(total, part)
        if not np.isfinite(total.data):
            raise TrainingError(step, f"loss diverged to {total.data}")
        total.backward()
        adam_step(opt, net)
        trace.append((step, float(total.data),
                      *(float(losses[k].data) for k in segments)))
    return trace, net


def trace_to_csv(trace, segments: dict | None = None) -> str:
    segments = segments or SEGMENTS
    names = ",".join(f"loss_{k}" for k in segments)
    lines = [f"step,loss_total,{names}"]
    for row in trace:
        lines.append(",".join(f"{v:.6f}" if i else str(v) for i, v in enumerate(row)))
    return "\n".join(lines) + "\n"
