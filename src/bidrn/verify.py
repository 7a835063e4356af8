"""Randomized self-verification suites behind the `verify` CLI command.

Each suite generates randomized cases from a seed, checks the packed 1-bit
kernels and the 1-bit transposed convolution, ``ops.binary_deconv2d``,
against slow independent paths, and reports the first counterexample with
enough detail to reproduce it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import binary, layers, ops
from .tensor import conv2d_reference


def direct_pm1_conv(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Shift-and-add ±1 direct convolution, independent of im2col and packing.

    Padding cells take the sign of zero (+1), matching the 1-bit kernel.
    """
    xs = np.where(np.asarray(x) >= 0, 1, -1).astype(np.int32)
    ws = np.where(np.asarray(w) >= 0, 1, -1).astype(np.int32)
    if padding:
        xs = np.pad(xs, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                    constant_values=1)
    n, c, h, wd = xs.shape
    c_out, _, kh, kw = ws.shape
    oh = (h - kh) // stride + 1
    ow = (wd - kw) // stride + 1
    out = np.zeros((n, c_out, oh, ow), dtype=np.int32)
    for oc in range(c_out):
        for i in range(kh):
            for j in range(kw):
                patch = xs[:, :, i:i + oh * stride:stride, j:j + ow * stride:stride]
                out[:, oc] += (patch * ws[oc, :, i, j][None, :, None, None]).sum(axis=1)
    return out


def direct_pm1_deconv(x: np.ndarray, w: np.ndarray, stride: int, padding: int) -> np.ndarray:
    """Shift-and-add ±1 transposed convolution, independent of im2col and
    the phase GEMM: tap (i, j) of w (C_in, C_out, K, K) adds its products
    onto the output cells (h*stride + i, w*stride + j), and the full grid is
    cropped by ``padding`` on each side.
    """
    xs = np.where(np.asarray(x) >= 0, 1, -1).astype(np.int32)
    ws = np.where(np.asarray(w) >= 0, 1, -1).astype(np.int32)
    n, _, h, wd = xs.shape
    _, c_out, kh, kw = ws.shape
    fh, fw = (h - 1) * stride + kh, (wd - 1) * stride + kw
    out = np.zeros((n, c_out, fh, fw), dtype=np.int32)
    for oc in range(c_out):
        for i in range(kh):
            for j in range(kw):
                taps = (xs * ws[:, oc, i, j][None, :, None, None]).sum(axis=1)
                out[:, oc, i:i + (h - 1) * stride + 1:stride,
                    j:j + (wd - 1) * stride + 1:stride] += taps
    return out[:, :, padding:fh - padding, padding:fw - padding]


def reference_pm1_conv(x: np.ndarray, p: binary.BinaryConv2dParams) -> np.ndarray:
    """Float oracle: conv2d_reference over +1-padded sign(x) and alpha*sign(w)."""
    xs = binary.sign_forward(np.asarray(x, dtype=np.float64))
    if p.padding:
        xs = np.pad(xs, ((0, 0), (0, 0), (p.padding, p.padding),
                         (p.padding, p.padding)), constant_values=1.0)
    wq = binary.binarize_weights(p).astype(np.float64)
    return conv2d_reference(xs, wq, p.stride, 0)


@dataclass
class SuiteResult:
    name: str
    passed: int = 0
    failed: int = 0
    first_failure: dict | None = None

    def record(self, ok: bool, case: dict):
        if ok:
            self.passed += 1
        else:
            self.failed += 1
            if self.first_failure is None:
                self.first_failure = case


@dataclass
class VerifyReport:
    suites: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.failed == 0 for s in self.suites)

    @property
    def total_passed(self) -> int:
        return sum(s.passed for s in self.suites)

    def summary_lines(self):
        for s in self.suites:
            status = "PASS" if s.failed == 0 else "FAIL"
            yield f"[{status}] {s.name}: {s.passed} passed, {s.failed} failed"
            if s.first_failure is not None:
                yield f"         first counterexample: {s.first_failure}"


def _random_conv_case(rng):
    c_in = int(rng.integers(1, 9))
    c_out = int(rng.integers(1, 9))
    k = int(rng.choice([1, 3]))
    stride = int(rng.choice([1, 2]))
    padding = int(rng.choice([0, 1])) if k == 3 else 0
    h = int(rng.integers(max(4, k), 11))
    w = int(rng.integers(max(4, k), 11))
    n = int(rng.integers(1, 3))
    return c_in, c_out, k, stride, padding, h, w, n


def _check_deconv_case(rng):
    """A random transposed convolution; returns (geometry, exact). Exact means
    the forward of ``ops.binary_deconv2d``, the layer the box head trains,
    equals alpha times the direct ±1 oracle bit for bit: both scale an exact
    integer by alpha."""
    c_in, c_out, n = (int(v) for v in rng.integers(1, [9, 9, 3]))
    k, stride = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    h, w = (int(v) for v in rng.integers(1, 7, size=2))
    # at most K - 1, and small enough to leave an output of at least 1 x 1
    most = min(k - 1, ((min(h, w) - 1) * stride + k - 1) // 2)
    padding = int(rng.integers(0, most + 1))
    geometry = (c_in, c_out, k, stride, padding, h, w, n)
    x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
    p = binary.BinaryConv2dParams.create(c_out, c_in, k, stride=stride, padding=padding,
                                         rng=rng, transposed=True)
    y = ops.binary_deconv2d(x, p).data
    oracle = direct_pm1_deconv(x, p.latent_weights.data, stride, padding)
    want = oracle.astype(np.float32) * p.alpha[:, None, None]
    return geometry, y.shape == want.shape and y.tobytes() == want.tobytes()


def suite_kernel_equivalence(seed: int, cases: int) -> SuiteResult:
    """Each case checks a random packed convolution and a random transposed
    convolution, drawn from separate streams, and passes when both do."""
    rng = np.random.default_rng(seed)
    deconv_rng = np.random.default_rng(seed + 4)
    res = SuiteResult("kernel-equivalence")
    for i in range(cases):
        c_in, c_out, k, stride, padding, h, w, n = _random_conv_case(rng)
        x = rng.standard_normal((n, c_in, h, w)).astype(np.float32)
        p = binary.BinaryConv2dParams.create(c_out, c_in, k, stride=stride,
                                             padding=padding, rng=rng)
        y, acc, _ = binary.binary_conv2d_packed(x, p)
        n_, _, oh, ow = y.shape
        acc_img = acc.reshape(n_, oh, ow, c_out).transpose(0, 3, 1, 2)
        oracle = direct_pm1_conv(x, p.latent_weights.data, stride, padding)
        exact = np.array_equal(acc_img, oracle)
        ref = reference_pm1_conv(x, p)
        close = np.allclose(y, ref, rtol=1e-5, atol=1e-6)
        t_geometry, t_exact = _check_deconv_case(deconv_rng)
        res.record(exact and close and t_exact, {
            "case": i, "seed": seed, "geometry": (c_in, c_out, k, stride, padding, h, w, n),
            "integer_exact": bool(exact), "float_close": bool(close),
            "transposed_geometry": t_geometry, "transposed_exact": t_exact,
        })
    return res


def suite_packing_roundtrip(seed: int, cases: int) -> SuiteResult:
    rng = np.random.default_rng(seed + 1)
    res = SuiteResult("packing-roundtrip")
    for i in range(cases):
        rows = int(rng.integers(1, 5))
        length = int(rng.integers(1, 201))
        x = rng.standard_normal((rows, length)).astype(np.float32)
        packed = binary.pack_signs(x)
        round_trip = np.array_equal(binary.unpack_signs(packed),
                                    binary.sign_forward(x))
        tail_ok = True
        rem = length % 64
        if rem:
            tail_ok = bool(np.all(
                packed.words[:, -1] & ~binary._tail_mask(length) == 0))
        a, b = x[0], x[min(1, rows - 1)]
        dot = int(binary.xnor_popcount_matmul(binary.pack_signs(a),
                                              binary.pack_signs(b))[0, 0])
        brute = int(binary.sign_forward(a) @ binary.sign_forward(b))
        res.record(round_trip and tail_ok and dot == brute, {
            "case": i, "rows": rows, "length": length,
            "round_trip": bool(round_trip), "tail_zero": bool(tail_ok),
            "dot": dot, "brute": brute,
        })
    return res


def suite_l1_preservation(seed: int, cases: int) -> SuiteResult:
    rng = np.random.default_rng(seed + 2)
    res = SuiteResult("l1-preservation")
    for i in range(cases):
        c_in, c_out, k, stride, padding, _, _, _ = _random_conv_case(rng)
        p = binary.BinaryConv2dParams.create(c_out, c_in, k, rng=rng)
        wq = binary.binarize_weights(p)
        lhs = np.abs(wq).sum(axis=(1, 2, 3))
        rhs = np.abs(p.latent_weights.data).sum(axis=(1, 2, 3))
        ok = np.allclose(lhs, rhs, rtol=1e-5)
        res.record(bool(ok), {"case": i, "geometry": (c_in, c_out, k),
                              "lhs": lhs.tolist(), "rhs": rhs.tolist()})
    return res


def suite_shape_laws(seed: int, cases: int) -> SuiteResult:
    rng = np.random.default_rng(seed + 3)
    res = SuiteResult("shape-laws")
    kinds = list(layers.ModuleKind)
    for i in range(cases):
        kind = kinds[int(rng.integers(len(kinds)))]
        c = int(rng.choice([2, 4, 6]))
        h = int(rng.choice([4, 8]))
        branches = int(rng.choice([2, 4]))
        plan = layers.branch_plan(kind, c, branches)
        spec = layers.ModuleSpec(kind, c, plan.out_channels, plan.stride, branches)
        module = layers.build_module(spec, rng)
        x = rng.standard_normal((1, c, h, h)).astype(np.float32)
        y = module.forward(x, "hardtanh", False)
        expected = layers.module_out_shape(spec, (c, h, h))
        ok = y.data.shape == (1, *expected)
        res.record(bool(ok), {"case": i, "kind": kind.value,
                              "got": y.data.shape, "expected": (1, *expected)})
    return res


def run_all(seed: int = 0, cases: int = 150) -> VerifyReport:
    return VerifyReport(suites=[
        suite_kernel_equivalence(seed, cases),
        suite_packing_roundtrip(seed, cases),
        suite_l1_preservation(seed, cases),
        suite_shape_laws(seed, min(cases, 60)),
    ])
