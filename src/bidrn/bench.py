"""Kernel throughput and memory-footprint benchmarks.

Measures wall-clock medians for the packed 1-bit convolution against the
full-precision reference and against a ±1 float32 GEMM on identical geometry,
plus the byte footprint of packed vs dense operands. The GEMM column times
sign(x), its +1-padded im2col and the product with the ±1 weight matrix,
which is built once. Every packed output is checked against the float oracle
on +1-padded signs, and every GEMM result against the packed accumulator; a
row where any of these disagree, or repeated packed outputs differ, carries
the checksum "MISMATCH".

:func:`bench_deconv` adds one row per transposed conv of the box head
(:func:`boxnet_deconv_shapes`). There is no packed transposed conv, so its
columns mean: ``packed_ms`` the 1-bit layer's forward,
``ops.binary_deconv2d``; ``pm1_gemm_ms`` the phase GEMM
:func:`tensor.conv_transpose2d` alone on ±1 operands; ``reference_ms`` the
scatter form ``col2im(weight_matrix(sign(w)).T @ sign(x) pixels)``, with
the pixels as (C_in, N*H*W) columns, on the same operands; ``packed_bytes``
the phase GEMM's gathered windows and ``dense_bytes`` the scatter form's
column matrix, both float32. The row
carries "MISMATCH" unless the phase GEMM equals the scatter form bit for bit,
the layer equals alpha times it bit for bit, and repeated layer outputs agree.

:func:`bench_record` adds the machine, the numpy version, the git commit and
the end-to-end figures at batch 8, timed with plain loops: the median eval
forward of the ``full-bidrb`` preset and its per-step time of ``train_toy``,
and the median eval forward of the paper-width network that perfbench's
``infer-wide`` runs (:func:`wide_config`), the only figure on the 1-bit word
path. After the timed loops come three ``tracemalloc`` peaks, each in its
own run: of one ``train_toy`` step, of one :func:`train.step` of the wide
network and of one wide eval forward.
"""

from __future__ import annotations

import csv
import hashlib
import io
import os
import platform
import subprocess
import time
import tracemalloc
from dataclasses import asdict, dataclass

import numpy as np

from . import binary, boxnet, config, layers, ops, tensor, train, verify

SCHEMA_VERSION = 4
E2E_PRESET = "full-bidrb"
E2E_BATCH = 8
E2E_SEED = 7
E2E_FORWARDS = 50  # eval forwards behind forward_ms_p50 and wide_forward_ms_p50
E2E_STEPS = 20     # S in train_step_ms
# (kind, in, out, stride, block residual) of the wide network's blocks.
WIDE_BLOCKS = [
    ("base_lcr", 64, 64, 1, "fp1x1"),
    ("fusion_up", 64, 128, 1, "bin1x1"),
    ("fusion_down", 128, 64, 1, "fp1x1"),
    ("down_scale", 64, 64, 2, "bin1x1"),
    ("down_sample", 64, 128, 2, "fp1x1"),
]

SIZE_PRESETS = {
    "small": [
        # (c_in, c_out, k, h, w, stride)
        (8, 8, 3, 16, 16, 1),
        (16, 16, 3, 16, 16, 1),
        (32, 32, 3, 14, 14, 1),
        (64, 64, 3, 8, 8, 1),
    ],
    "medium": [
        (32, 32, 3, 28, 28, 1),
        (64, 64, 3, 28, 28, 2),
        (128, 128, 3, 14, 14, 1),
        (256, 256, 3, 7, 7, 1),
    ],
}


@dataclass
class BenchRow:
    geometry: str
    reduction_len: int
    packed_ms: float
    reference_ms: float
    pm1_gemm_ms: float
    packed_bytes: int
    dense_bytes: int
    checksum: str
    total_macs: int


def _median_time(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) * 1000)
    return float(np.median(times))


def bench_conv(shapes, reps: int = 5, seed: int = 0, batch: int = 1):
    """One row per (c_in, c_out, k, h, w, stride) geometry, run on ``batch``
    images; ``dense_bytes``, ``packed_bytes`` and ``total_macs`` cover the
    whole batch."""
    rng = np.random.default_rng(seed)
    rows = []
    for c_in, c_out, k, h, w, stride in shapes:
        x = rng.standard_normal((batch, c_in, h, w)).astype(np.float32)
        p = binary.BinaryConv2dParams.create(c_out, c_in, k, stride=stride,
                                             padding=k // 2, rng=rng)
        wq = binary.binarize_weights(p)
        w_pm1 = tensor.weight_matrix(binary.sign_forward(p.latent_weights.data))

        outputs, accs, gemms = [], [], []

        def packed():
            y, acc, _ = binary.binary_conv2d_packed(x, p)
            outputs.append(y)
            accs.append(acc)

        def reference():
            tensor.conv2d_reference(x, wq, stride, k // 2)

        def pm1_gemm():
            cols = tensor.im2col(binary.sign_forward(x), k, k, stride, k // 2, pad_value=1.0)
            gemms.append(cols @ w_pm1.T)

        packed_ms = _median_time(packed, reps)
        reference_ms = _median_time(reference, reps)
        pm1_gemm_ms = _median_time(pm1_gemm, reps)

        cols = tensor.im2col(x, k, k, stride, k // 2)
        packed_rows = binary.pack_signs(cols)
        dense_bytes = cols.size * 4
        checksums = {hashlib.sha256(np.ascontiguousarray(o).tobytes()).hexdigest()[:16]
                     for o in outputs}
        ref = verify.reference_pm1_conv(x, p)
        agree = len(checksums) == 1 and all(
            np.allclose(o, ref, rtol=1e-5, atol=1e-6) for o in outputs) and all(
            np.array_equal(g, a) for g, a in zip(gemms, accs))
        oh = tensor.conv_out_extent(h, k, stride, k // 2)
        ow = tensor.conv_out_extent(w, k, stride, k // 2)
        rows.append(BenchRow(
            geometry=f"{c_in}x{c_out}x{k}x{h}x{w}s{stride}",
            reduction_len=c_in * k * k,
            packed_ms=packed_ms,
            reference_ms=reference_ms,
            pm1_gemm_ms=pm1_gemm_ms,
            packed_bytes=packed_rows.footprint_bytes,
            dense_bytes=dense_bytes,
            checksum=checksums.pop() if agree else "MISMATCH",
            total_macs=batch * c_out * c_in * k * k * oh * ow,
        ))
    return rows


def boxnet_deconv_shapes():
    """(c_in, c_out, k, h, w, stride, padding) of the two transposed convs of
    ``BoxNetParams.create``'s defaults on the feature map that the last block
    of the ``full-bidrb`` preset produces, the box head that perfbench's
    ``boxnet-train`` trains."""
    channels, size, _ = config.preset_config(E2E_PRESET).validate()
    shapes = []
    for p in boxnet.BoxNetParams.create(feature_channels=channels).deconvs:
        c_in, c_out, k, _ = p.latent_weights.data.shape
        shapes.append((c_in, c_out, k, size, size, p.stride, p.padding))
        size = tensor.conv_transpose_extent(size, k, p.stride, p.padding)
    return shapes


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and \
        np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()


def bench_deconv(shapes, reps: int = 5, seed: int = 0, batch: int = 1):
    """One row per (c_in, c_out, k, h, w, stride, padding) transposed conv,
    run on ``batch`` images; the columns are described in the module
    docstring."""
    rng = np.random.default_rng(seed)
    rows = []
    for c_in, c_out, k, h, w, stride, padding in shapes:
        x = rng.standard_normal((batch, c_in, h, w)).astype(np.float32)
        p = binary.BinaryConv2dParams.create(c_out, c_in, k, stride=stride, padding=padding,
                                             rng=rng, transposed=True)
        out_hw = (tensor.conv_transpose_extent(h, k, stride, padding),
                  tensor.conv_transpose_extent(w, k, stride, padding))
        xs, ws = binary.sign_forward(x), binary.sign_forward(p.latent_weights.data)
        outputs, gemms, scatters = [], [], []

        def layer():
            outputs.append(ops.binary_deconv2d(x, p).data)

        def phase_gemm():
            gemms.append(tensor.conv_transpose2d(xs, ws, stride, padding))

        def scatter():
            x_cols = xs.transpose(1, 0, 2, 3).reshape(c_in, -1)
            scatters.append(tensor.col2im(tensor.weight_matrix(ws).T @ x_cols,
                                          (batch, c_out, *out_hw), k, k, stride, padding))

        packed_ms = _median_time(layer, reps)
        pm1_gemm_ms = _median_time(phase_gemm, reps)
        reference_ms = _median_time(scatter, reps)

        checksums = {hashlib.sha256(o.tobytes()).hexdigest()[:16] for o in outputs}
        want = scatters[0] * p.alpha[:, None, None]
        agree = len(checksums) == 1 and _same_bits(outputs[0], want) and all(
            _same_bits(g, sc) for g, sc in zip(gemms, scatters))
        q = -(-k // stride)  # the phase GEMM's window: K padded to q*stride taps
        rows.append(BenchRow(
            geometry=f"deconv{c_in}x{c_out}x{k}x{h}x{w}s{stride}p{padding}",
            reduction_len=q * q * c_in,
            packed_ms=packed_ms,
            reference_ms=reference_ms,
            pm1_gemm_ms=pm1_gemm_ms,
            packed_bytes=batch * (h + q - 1) * (w + q - 1) * q * q * c_in * 4,
            dense_bytes=batch * h * w * k * k * c_out * 4,
            checksum=checksums.pop() if agree else "MISMATCH",
            total_macs=batch * c_in * c_out * k * k * h * w,
        ))
    return rows


def report_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["geometry", "reduction_len", "packed_ms", "reference_ms",
                     "pm1_gemm_ms", "packed_bytes", "dense_bytes",
                     "footprint_ratio", "checksum", "total_macs"])
    for r in rows:
        writer.writerow([r.geometry, r.reduction_len, f"{r.packed_ms:.4f}",
                         f"{r.reference_ms:.4f}", f"{r.pm1_gemm_ms:.4f}",
                         r.packed_bytes, r.dense_bytes,
                         f"{r.dense_bytes / r.packed_bytes:.2f}",
                         r.checksum, r.total_macs])
    return buf.getvalue()


def blas_threads_warning() -> str | None:
    """A warning unless OPENBLAS_NUM_THREADS is 1: with more BLAS threads
    the float columns measure thread contention on a shared machine."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    if threads == "1":
        return None
    state = "unset" if threads is None else f"set to {threads!r}"
    return (f"warning: OPENBLAS_NUM_THREADS is {state}; run with "
            f"OPENBLAS_NUM_THREADS=1 so the float columns do not time BLAS threads")


def wide_config(seed: int = E2E_SEED):
    """perfbench's ``infer-wide`` network at ``seed``: every module kind at
    64 to 128 channels on a 64x16x16 input, so every 3x3 reduction is at
    least 576 bits long (9 words), with both 1x1 shortcut kinds. A test pins
    it to ``perfbench/workloads.py``'s ``infer_wide_config``."""
    return config.config_from_dict({
        "input_shape": [64, 16, 16],
        "preact": "hardtanh",
        "seed": seed,
        "head": {"out_features": 14},
        "blocks": [{"kind": kind, "in_channels": ci, "out_channels": co, "stride": stride,
                    "block_residual": br} for kind, ci, co, stride, br in WIDE_BLOCKS],
    })


def _peak_mb(fn) -> float:
    """The ``tracemalloc`` peak, in MB, of one call of ``fn``."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _network_and_input(cfg):
    """The network built from ``cfg`` and a batch-8 input drawn at seed 7."""
    net = layers.build_network(cfg)
    x = np.random.default_rng(E2E_SEED).standard_normal(
        (E2E_BATCH, *cfg.input_shape)).astype(np.float32)
    return net, x


def train_step_peak_mb() -> float:
    """The ``tracemalloc`` peak, in MB, of ``train_toy`` running one step of
    the ``full-bidrb`` preset at seed 7 and batch 8. The task, network and
    optimizer it builds first stay live through the step. One untraced run
    goes first, so lazy set-up is done and a fresh process reads what a
    warm one does. Unlike a timing, it does not move with the host."""
    def run():
        train.train_toy(config.preset_config(E2E_PRESET), 1, seed=E2E_SEED, batch=E2E_BATCH)

    run()
    return _peak_mb(run)


def wide_train_step_peak_mb() -> float:
    """The ``tracemalloc`` peak, in MB, of one :func:`train.step` of
    :func:`wide_config`'s network at batch 8 against a zero target, whose
    14 outputs are the three loss segments. The network, the optimizer, the
    input and the target are built first, and one step runs untraced, so the
    peak leaves out set-up."""
    cfg = wide_config()
    net, x = _network_and_input(cfg)
    opt = train.Adam(net.named_parameters())
    target = np.zeros((E2E_BATCH, cfg.head_out), np.float32)
    train.step(net, opt, x, target)
    return _peak_mb(lambda: train.step(net, opt, x, target))


def _eval_forward(cfg):
    """A batch-8 eval forward of the network built from ``cfg``, on an input
    drawn at seed 7, as a function of no arguments; one call has run, so
    lazy set-up is done."""
    net, x = _network_and_input(cfg)
    net.forward(x, training=False)
    return lambda: net.forward(x, training=False)


def end_to_end(reps: int) -> dict:
    """The median ms of a batch-8 eval forward of the ``full-bidrb`` preset,
    and its ms per ``train_toy`` step at seed 7 and batch 8, taken as
    (t(S steps) - t(0 steps)) / S from the medians of ``reps`` runs each, so
    the task, network and optimizer set-up cancels out; the median ms of a
    batch-8 eval forward of :func:`wide_config`'s network; then, untimed,
    :func:`train_step_peak_mb`, :func:`wide_train_step_peak_mb` and the
    ``tracemalloc`` peak of one wide forward, which leaves out the network
    and its input, built before it."""
    cfg = config.preset_config(E2E_PRESET)
    forward = _eval_forward(cfg)

    def run(steps):
        train.train_toy(cfg, steps, seed=E2E_SEED, batch=E2E_BATCH)

    forward_ms = _median_time(forward, E2E_FORWARDS)
    steps_ms = _median_time(lambda: run(E2E_STEPS), reps)
    setup_ms = _median_time(lambda: run(0), reps)
    wide_forward = _eval_forward(wide_config())
    wide_ms = _median_time(wide_forward, E2E_FORWARDS)
    return {
        "preset": E2E_PRESET,
        "batch": E2E_BATCH,
        "seed": E2E_SEED,
        "forward_ms_p50": forward_ms,
        "forwards": E2E_FORWARDS,
        "train_step_ms": (steps_ms - setup_ms) / E2E_STEPS,
        "train_steps": E2E_STEPS,
        "train_reps": reps,
        "train_step_peak_mb": train_step_peak_mb(),
        "wide_train_step_peak_mb": wide_train_step_peak_mb(),
        "wide_forward_ms_p50": wide_ms,
        "wide_forward_peak_mb": _peak_mb(wide_forward),
    }


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def git_sha() -> str | None:
    """HEAD of the checkout holding this package, or None outside one. The
    search stops above the checkout's root, two levels above the package."""
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def bench_record(rows, sizes: str, reps: int, batch: int, seed: int) -> dict:
    """The JSON record of one ``bidrn bench`` run: the kernel rows at
    ``batch`` and the end-to-end figures."""
    return {
        "schema_version": SCHEMA_VERSION,
        "machine": machine_record(),
        "numpy": np.__version__,
        "git_sha": git_sha(),
        "kernel": {"sizes": sizes, "batch": batch, "reps": reps, "seed": seed,
                   "rows": [asdict(r) for r in rows]},
        "end_to_end": end_to_end(reps),
    }
