"""The benchmark's closed-loop workloads.

``make_inputs(seed)`` generates a workload's input arrays; the constructor
then builds the program's state from the seed and those inputs, which is the
set-up ``run.py`` times. ``step`` is one training step and ``forward`` one
eval-mode forward on batch 8, each timed from outside. ``checks`` runs after
the timed phase and yields ``(name, passed)`` pairs. Why each workload exists
is written in README.md.
"""

from __future__ import annotations

import numpy as np

from bidrn import binary, boxnet, config, layers, ops, stats, train, verify
from bidrn.errors import TrainingError

BATCH = 8
HELD_OUT_SEED_OFFSET = 1_000_003  # keeps held-out inputs off the training stream
INPUT_POOL = 8  # distinct input batches cycled through by the non-toy workloads


class TrainFullBidrb:
    """``train.train_toy``'s step on the full-bidrb preset, plus held-out
    eval forwards that read the weights each step rewrites."""

    name = "train-full-bidrb"
    trains = True

    @staticmethod
    def make_inputs(seed: int):
        """The held-out batch; training batches come from the task's own
        sample stream, as in ``train_toy``."""
        rng = np.random.default_rng(seed + HELD_OUT_SEED_OFFSET)
        return rng.standard_normal((BATCH, 3, 32, 32)).astype(np.float32)

    def __init__(self, seed: int, held_x):
        self.seed = seed
        self.cfg = config.preset_config("full-bidrb")
        self.cfg.head_out = sum(train.SEGMENTS.values())
        self.network = layers.build_network(self.cfg)
        self.task = train.make_synthetic_task(seed, train.SEGMENTS)
        self.opt = train.Adam(self.network.named_parameters(), lr=1e-2)
        self.held_x = held_x
        self.held_target = self.task.teacher(self.held_x).astype(np.float32)
        self.trace = []
        self.held_out = []

    def step(self):
        """The body of ``train.train_toy``'s loop, unchanged."""
        x, target = self.task.sample(BATCH)
        self.network.zero_grad()
        pred = self.network.forward(x, training=True)
        losses = train.segment_losses(pred, target, train.SEGMENTS)
        total = None
        for part in losses.values():
            total = part if total is None else ops.add(total, part)
        step = len(self.trace)
        if not np.isfinite(total.data):
            raise TrainingError(step, f"loss diverged to {total.data}")
        total.backward()
        train.adam_step(self.opt, self.network)
        self.trace.append((step, float(total.data),
                           *(float(losses[k].data) for k in train.SEGMENTS)))

    def forward(self):
        self.held_out.append(self.network.forward(self.held_x, training=False).data)

    def losses(self):
        return [row[1] for row in self.trace]

    def model_stats(self):
        return stats.model_stats(self.cfg)

    def checks(self):
        """Each step must match ``train_toy``'s row bit for bit, and the last
        held-out forward, which follows the last step, must equal bit for bit
        an eval forward of ``train_toy``'s network. Each held-out loss must be
        finite."""
        try:
            reference, net = train.train_toy(config.preset_config("full-bidrb"),
                                             len(self.trace), seed=self.seed, batch=BATCH)
        except TrainingError:
            reference, net = [], None
        for i, row in enumerate(self.trace):
            yield f"fidelity step {i}", i < len(reference) and reference[i] == row
        yield "last held-out forward equals train_toy's network", \
            net is not None and bool(self.held_out) and np.array_equal(
                net.forward(self.held_x, training=False).data, self.held_out[-1])
        for i, pred in enumerate(self.held_out):
            loss = np.abs(pred - self.held_target).mean()
            yield f"held-out forward {i} finite", bool(np.isfinite(loss))


def infer_wide_config(seed: int):
    """Every module kind at >= 64 channels on a 16x16 input, so every 3x3
    reduction is >= 576 long (9 words), with both 1x1 shortcut kinds."""
    def block(kind, ci, co, stride=1, br="fp1x1"):
        return {"kind": kind, "in_channels": ci, "out_channels": co,
                "stride": stride, "block_residual": br}
    return config.config_from_dict({
        "input_shape": [64, 16, 16],
        "preact": "hardtanh",
        "seed": seed,
        "head": {"out_features": 14},
        "blocks": [
            block("base_lcr", 64, 64),
            block("fusion_up", 64, 128, br="bin1x1"),
            block("fusion_down", 128, 64),
            block("down_scale", 64, 64, stride=2, br="bin1x1"),
            block("down_sample", 64, 128, stride=2),
        ],
    })


class InferWide:
    """Eval-mode forwards with fixed weights on a wide network."""

    name = "infer-wide"
    trains = False

    @staticmethod
    def make_inputs(seed: int):
        rng = np.random.default_rng(seed)
        return [rng.standard_normal((BATCH, 64, 16, 16)).astype(np.float32)
                for _ in range(INPUT_POOL)]

    def __init__(self, seed: int, inputs):
        self.cfg = infer_wide_config(seed)
        self.network = layers.build_network(self.cfg)
        self.inputs = inputs
        self.outputs = []

    def forward(self):
        x = self.inputs[len(self.outputs) % INPUT_POOL]
        self.outputs.append(self.network.forward(x, training=False).data)

    def losses(self):
        return []

    def model_stats(self):
        return stats.model_stats(self.cfg)

    def checks(self):
        """Outputs are finite and repeat bit for bit for a repeated input.
        Then every packed conv of one more forward is compared with the float
        oracle on +1-padded signs."""
        for i, y in enumerate(self.outputs):
            first = self.outputs[i % INPUT_POOL]
            yield f"forward {i} finite and repeatable", \
                bool(np.all(np.isfinite(y))) and np.array_equal(y, first)
        calls = []
        packed = binary.binary_conv2d_packed

        def recording(x, p):
            out = packed(x, p)
            calls.append((x, p, out[0]))
            return out

        binary.binary_conv2d_packed = recording
        try:
            self.network.forward(self.inputs[0], training=False)
        finally:
            binary.binary_conv2d_packed = packed
        yield "the forward ran packed convs", bool(calls)
        for i, (x, p, y) in enumerate(calls):
            ref = verify.reference_pm1_conv(x, p)
            yield f"packed conv {i} {tuple(x.shape)} vs reference_pm1_conv", \
                bool(np.allclose(y, ref, rtol=1e-5, atol=1e-6))


class BoxnetTrain:
    """Box-head training steps on random encoder features, plus held-out
    forwards whose boxes are checked against the map.

    The features have the shape of the feature map that the full-bidrb
    preset's last block produces (6 channels, 8x8), and the head has
    ``BoxNetParams.create``'s defaults (4 joints, depth 1, 8 transposed-conv
    channels)."""

    name = "boxnet-train"
    trains = True
    FEATURE_CHANNELS, FEATURE_SIZE, _ = config.preset_config("full-bidrb").validate()
    MAP_SIZE = 4 * FEATURE_SIZE  # two stride-2 transposed convs

    @classmethod
    def make_inputs(cls, seed: int):
        """(feature, target) training batches and a held-out feature batch.
        Target centers lie inside the box map; target sizes are 1 to 8."""
        rng = np.random.default_rng(seed)
        shape = (BATCH, cls.FEATURE_CHANNELS, cls.FEATURE_SIZE, cls.FEATURE_SIZE)
        boxes = (BATCH, boxnet.NUM_BOXES, 2)
        batches = []
        for _ in range(INPUT_POOL):
            feature = rng.standard_normal(shape).astype(np.float32)
            target = np.concatenate([rng.uniform(0, cls.MAP_SIZE - 1, size=boxes),
                                     rng.uniform(1.0, 8.0, size=boxes)], axis=2)
            batches.append((feature, target.astype(np.float32)))
        held = np.random.default_rng(seed + HELD_OUT_SEED_OFFSET)
        return batches, held.standard_normal(shape).astype(np.float32)

    def __init__(self, seed: int, inputs):
        self.seed = seed
        self.params = boxnet.BoxNetParams.create(
            feature_channels=self.FEATURE_CHANNELS, seed=seed)
        self.named = self.params.named_parameters()
        self.opt = train.Adam(self.named, lr=1e-2)
        self.batches, self.held_feature = inputs
        self.step_losses = []
        self.held_out = []

    def step(self):
        feature, target = self.batches[len(self.step_losses) % INPUT_POOL]
        for p in self.named.values():
            p.zero_grad()
        centers, sizes = boxnet.box_head_forward(feature, self.params)
        loss = boxnet.box_loss(boxnet.boxes_tensor(centers, sizes), target)
        step = len(self.step_losses)
        if not np.isfinite(loss.data):
            raise TrainingError(step, f"box loss diverged to {loss.data}")
        loss.backward()
        self.opt.step()
        self.step_losses.append(float(loss.data))

    def forward(self):
        centers, sizes = boxnet.box_head_forward(self.held_feature, self.params)
        self.held_out.append((centers.data, sizes.data))

    def losses(self):
        return self.step_losses

    def model_stats(self):
        return None

    def checks(self):
        """Every held-out size is finite and positive, every center lies
        inside the box map, and the head has one full-precision linear. The
        last held-out forward, which follows the last step, must equal bit
        for bit a forward of a fresh head loaded with the current weights."""
        fresh = boxnet.BoxNetParams.create(feature_channels=self.FEATURE_CHANNELS,
                                           seed=self.seed)
        for name, p in fresh.named_parameters().items():
            p.data[...] = self.named[name].data
        centers, sizes = boxnet.box_head_forward(self.held_feature, fresh)
        yield "last held-out forward equals a fresh head's", bool(self.held_out) and \
            np.array_equal(centers.data, self.held_out[-1][0]) and \
            np.array_equal(sizes.data, self.held_out[-1][1])
        hi = self.MAP_SIZE - 1
        for i, (centers, sizes) in enumerate(self.held_out):
            yield f"held-out forward {i} sizes finite and positive", \
                bool(np.all(np.isfinite(sizes)) and np.all(sizes > 0))
            yield f"held-out forward {i} centers inside the map", \
                bool(np.all((centers >= 0) & (centers <= hi)))
        yield "one full-precision linear", self.params.full_precision_linear_count() == 1


WORKLOADS = {w.name: w for w in (TrainFullBidrb, InferWide, BoxnetTrain)}
