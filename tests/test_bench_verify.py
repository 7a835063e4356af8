import os
import pathlib
import subprocess
import sys

import numpy as np
from click.testing import CliRunner

from bidrn import bench, binary, ops, tensor, verify
from bidrn.cli import main


class TestVerifySuites:
    def test_all_suites_pass(self):
        report = verify.run_all(seed=0, cases=25)
        assert report.ok, "\n".join(report.summary_lines())
        assert report.total_passed == 25 * 3 + 25  # shape suite capped at 60

    def test_seed_changes_cases_not_outcome(self):
        assert verify.run_all(seed=1, cases=10).ok
        assert verify.run_all(seed=99, cases=10).ok

    def test_summary_format(self):
        lines = list(verify.run_all(seed=0, cases=5).summary_lines())
        assert len(lines) == 4
        assert all(line.startswith("[PASS]") for line in lines)

    def test_fault_injection_caught(self, monkeypatch):
        # an off-by-one XNOR kernel; the kernel-equivalence and packing
        # suites must fail every case and report a counterexample
        real = binary.xnor_popcount_matmul
        monkeypatch.setattr(binary, "xnor_popcount_matmul", lambda a, w: real(a, w) + 1)
        report = verify.run_all(seed=0, cases=30)
        assert not report.ok
        failing = {s.name: s for s in report.suites if s.failed}
        for name in ("kernel-equivalence", "packing-roundtrip"):
            assert failing[name].failed == 30
            assert failing[name].first_failure is not None
        monkeypatch.setattr(binary, "xnor_popcount_matmul", real)
        assert verify.run_all(seed=0, cases=5).ok

    def test_flipped_deconv_output_caught(self, monkeypatch):
        # one output sign of the live transposed-conv op flipped: criterion 1
        # must fail every case on its transposed half
        real = ops.binary_deconv2d

        def flipped(x, p):
            y = real(x, p)
            y.data.flat[0] = -y.data.flat[0]
            return y

        monkeypatch.setattr(ops, "binary_deconv2d", flipped)
        res = verify.suite_kernel_equivalence(seed=0, cases=10)
        assert res.failed == 10
        assert res.first_failure["transposed_exact"] is False
        assert res.first_failure["integer_exact"] and res.first_failure["float_close"]

    def test_report_counts(self):
        report = verify.run_all(seed=3, cases=8)
        for suite in report.suites:
            assert suite.passed + suite.failed == 8


class TestOracles:
    def test_direct_conv_agrees_with_reference(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((1, 3, 6, 6)).astype(np.float32)
        p = binary.BinaryConv2dParams.create(2, 3, 3, padding=1, rng=rng)
        acc = verify.direct_pm1_conv(x, p.latent_weights.data, 1, 1)
        ref = verify.reference_pm1_conv(x, p)
        np.testing.assert_allclose(acc * p.alpha[None, :, None, None], ref,
                                   rtol=1e-5, atol=1e-6)

    def test_direct_conv_padding_is_plus_one(self):
        x = -np.ones((1, 1, 2, 2), dtype=np.float32)
        w = np.ones((1, 1, 3, 3), dtype=np.float32)
        acc = verify.direct_pm1_conv(x, w, 1, 1)
        # corner window: 5 padded (+1) cells, 4 real (-1) cells
        assert acc[0, 0, 0, 0] == 1


class TestBench:
    def test_rows_and_checksum_determinism(self):
        shapes = bench.SIZE_PRESETS["small"][:2]
        a = bench.bench_conv(shapes, reps=1, seed=0)
        b = bench.bench_conv(shapes, reps=1, seed=0)
        assert len(a) == 2
        for ra, rb in zip(a, b):
            assert ra.checksum == rb.checksum
            assert ra.checksum != "MISMATCH"

    def test_footprint_ratio(self):
        rows = bench.bench_conv([(64, 64, 3, 8, 8, 1)], reps=1, seed=0)
        r = rows[0]
        assert r.dense_bytes / r.packed_bytes > 25

    def test_macs_monotone_in_geometry(self):
        rows = bench.bench_conv(bench.SIZE_PRESETS["small"], reps=1, seed=0)
        macs = [r.total_macs for r in rows]
        assert macs == sorted(macs)

    def test_csv_report(self):
        rows = bench.bench_conv([(8, 8, 3, 8, 8, 1)], reps=1, seed=0)
        csv_text = bench.report_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0].rstrip().split(",") == [
            "geometry", "reduction_len", "packed_ms", "reference_ms", "pm1_gemm_ms",
            "packed_bytes", "dense_bytes", "footprint_ratio", "checksum", "total_macs"]
        assert len(lines) == 2
        assert "8x8x3x8x8s1" in lines[1]

    def test_kernel_checked_against_float_oracle(self, monkeypatch):
        # an off-by-one matmul is consistent across reps, so only the float
        # oracle can catch it
        real = binary.xnor_popcount_matmul
        monkeypatch.setattr(binary, "xnor_popcount_matmul",
                            lambda a, w: real(a, w) + 1)
        rows = bench.bench_conv([(8, 8, 3, 8, 8, 1)], reps=2, seed=0)
        assert rows[0].checksum == "MISMATCH"
        result = CliRunner().invoke(main, ["bench", "--reps", "1"])
        assert result.exit_code == 1
        assert "MISMATCH" in result.output

    def test_pm1_gemm_checked_against_packed_accumulator(self, monkeypatch):
        # a ±1 GEMM whose gather pads with 0 instead of +1 disagrees with the
        # packed accumulator at the borders; the packed path is untouched
        real = tensor.im2col
        monkeypatch.setattr(tensor, "im2col",
                            lambda x, kh, kw, stride, padding, pad_value=0.0:
                            real(x, kh, kw, stride, padding, 0.0))
        rows = bench.bench_conv([(8, 8, 3, 8, 8, 1)], reps=2, seed=0)
        assert rows[0].checksum == "MISMATCH"
        monkeypatch.setattr(tensor, "im2col", real)
        assert bench.bench_conv([(8, 8, 3, 8, 8, 1)], reps=2, seed=0)[0].checksum != "MISMATCH"

    def test_deconv_rows_are_the_box_heads(self):
        """full-bidrb's last block gives 6 channels at 8x8; the head concatenates
        4 heatmap channels and upsamples twice."""
        assert bench.boxnet_deconv_shapes() == [(10, 8, 4, 8, 8, 2, 1), (8, 8, 4, 16, 16, 2, 1)]
        rows = bench.bench_deconv(bench.boxnet_deconv_shapes(), reps=2, seed=0, batch=2)
        assert [r.geometry for r in rows] == ["deconv10x8x4x8x8s2p1", "deconv8x8x4x16x16s2p1"]
        assert all(r.checksum != "MISMATCH" for r in rows)
        assert rows[0].total_macs == 2 * 10 * 8 * 16 * 64

    def test_deconv_checked_against_scatter_form(self, monkeypatch):
        # a phase GEMM off by one everywhere agrees with itself across reps
        real = tensor.conv_transpose2d
        monkeypatch.setattr(tensor, "conv_transpose2d",
                            lambda x, w, stride, padding:
                            real(x, w, stride, padding) + 1)
        rows = bench.bench_deconv(bench.boxnet_deconv_shapes(), reps=2, seed=0)
        assert [r.checksum for r in rows] == ["MISMATCH", "MISMATCH"]
        result = CliRunner().invoke(main, ["bench", "--reps", "1"])
        assert result.exit_code == 1
        assert "deconv10x8x4x8x8s2p1" in result.output

    def test_train_step_peak_reads_alike_in_a_fresh_process(self):
        """The first traced step of a fresh process also counted lazy set-up
        (5.43 MB against 4.72 MB after it); after the untraced run two calls
        agree within 1%."""
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=str(pathlib.Path(bench.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", "from bidrn import bench; "
             "print(bench.train_step_peak_mb(), bench.train_step_peak_mb())"],
            env=env, capture_output=True, text=True, check=True, timeout=300)
        first, second = map(float, out.stdout.split())
        assert abs(first - second) <= 0.01 * second
