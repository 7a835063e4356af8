"""Kernel throughput and memory-footprint benchmarks.

Measures wall-clock medians for the packed 1-bit convolution against the
full-precision reference and against a ±1 float32 GEMM on identical geometry,
plus the byte footprint of packed vs dense operands. The GEMM column times
sign(x), its +1-padded im2col and the product with the ±1 weight matrix,
which is built once. Every packed output is checked against the float oracle
on +1-padded signs, and every GEMM result against the packed accumulator; a
row where any of these disagree, or repeated packed outputs differ, carries
the checksum "MISMATCH".
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from dataclasses import dataclass

import numpy as np

from . import binary, tensor, verify

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
            y, acc = binary.binary_conv2d_packed(x, p)
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
