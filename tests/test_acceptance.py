"""Acceptance suite: one test per release criterion.

Each test is named ``test_criterion_<n>_<slug>``; the conftest hook prints a
pass/fail line per criterion in the terminal summary.
"""

import pathlib
import time

import numpy as np

from bidrn import binary, config, gradcheck, layers, stats, train, verify
from bidrn.autograd import as_var
from bidrn.boxnet import BoxNetParams, Heatmap, soft_argmax
from bidrn.layers import ModuleKind, ModuleSpec, NetworkConfig, build_module
from bidrn.ops import PREACT


def test_criterion_1_kernel_oracle_equivalence():
    """>= 300 randomized configs: integer accumulators bit-exact against the
    direct ±1 oracle, post-alpha outputs within 1e-5 relative, under 60 s."""
    t0 = time.perf_counter()
    suite = verify.suite_kernel_equivalence(seed=0, cases=300)
    elapsed = time.perf_counter() - t0
    assert suite.failed == 0, suite.first_failure
    assert suite.passed >= 300
    assert elapsed < 60.0


def test_criterion_2_ste_fidelity():
    """STE gradient matches central finite differences of the surrogate
    within 1e-4 absolute at 1000 interior points; exactly 0 when |x| >= 1."""
    rng = np.random.default_rng(0)
    xs = rng.uniform(-0.999, 0.999, size=1000)
    eps = 1e-5
    fd = (binary.smooth_sign(xs + eps) - binary.smooth_sign(xs - eps)) / (2 * eps)
    assert np.max(np.abs(binary.ste_grad(xs) - fd)) < 1e-4
    saturated = np.concatenate([rng.uniform(1.0, 10.0, 200),
                                rng.uniform(-10.0, -1.0, 200)])
    assert np.all(binary.ste_grad(saturated) == 0.0)


def test_criterion_3_end_to_end_gradcheck(gradcheck_sweep):
    """Every backward rule and a composed 3-block network match finite
    differences within 1e-3 relative (1e-5 absolute floor)."""
    results, _ = gradcheck_sweep
    worst = {k: v for k, v in results.items() if v > gradcheck.REL_TOL}
    assert not worst, f"failing rules: {worst}"
    assert "network_3block" in results


def test_criterion_4_shape_laws():
    """Module geometry: LCR preserves shape, DScR halves H/W, FUR doubles C,
    FDR halves C, DSaR scales C by its branch count and halves H/W."""
    rng = np.random.default_rng(1)
    for _ in range(40):
        c = int(rng.choice([2, 4, 6]))
        h = int(rng.choice([4, 8, 12]))
        for kind, out_c, stride, branches in [
            (ModuleKind.BASE_LCR, c, 1, 2),
            (ModuleKind.DOWN_SCALE, c, 2, 2),
            (ModuleKind.FUSION_UP, 2 * c, 1, 2),
            (ModuleKind.FUSION_DOWN, c // 2, 1, 2),
            (ModuleKind.DOWN_SAMPLE, 2 * c, 2, 2),
            (ModuleKind.DOWN_SAMPLE, 4 * c, 2, 4),
        ]:
            spec = ModuleSpec(kind, c, out_c, stride, branches)
            module = build_module(spec, rng)
            x = rng.standard_normal((1, c, h, h)).astype(np.float32)
            y = module.forward(as_var(x), "hardtanh", False)
            assert y.data.shape == (1, out_c, h // stride, h // stride), \
                (kind, c, h, branches, y.data.shape)


def test_criterion_5_accounting_convention():
    """Effective counts: params_fp + params_bin/32 and ops_fp + ops_bin/64
    exactly, against a hand-summed golden config and a single-layer spot check."""
    params, _, binarized = stats.count_layer(
        stats.LayerDesc("conv", binarized=True, c_in=64, c_out=64,
                        kernel=3, padding=1), (64, 56, 56))
    assert binarized and params == 36864 and params / 32 == 1152

    tiny = pathlib.Path(__file__).resolve().parent.parent / "configs" / "tiny.json"
    cfg = config.load_config(str(tiny))
    s = stats.model_stats(cfg)
    # hand-summed golden numbers for configs/tiny.json
    assert s.params_fp == 254
    assert s.params_bin_latent == 810
    assert s.ops_fp == 76884
    assert s.ops_bin == 331776
    assert s.params_effective == s.params_fp + s.params_bin_latent / 32
    assert s.ops_effective == s.ops_fp + s.ops_bin / 64


def test_criterion_6_compression_footprint():
    """Packed operands are >= 30x smaller than dense float32 whenever the
    reduction length is >= 2048, by byte accounting."""
    rng = np.random.default_rng(2)
    for length in (2048, 2049, 3000, 4096, 8192):
        rows = int(rng.integers(1, 6))
        x = rng.standard_normal((rows, length)).astype(np.float32)
        packed = binary.pack_signs(x)
        dense_bytes = x.size * 4
        assert dense_bytes / packed.footprint_bytes >= 30, length


def test_criterion_7_toy_training_converges():
    """Seed 7, default full-bidrb config, 500 steps: the 20-step smoothed loss
    ends at <= 50% of its initial value in under 120 s single-threaded."""
    cfg = config.preset_config("full-bidrb")
    t0 = time.perf_counter()
    trace, _ = train.train_toy(cfg, steps=500, seed=7)
    elapsed = time.perf_counter() - t0
    losses = [row[1] for row in trace]
    initial = float(np.mean(losses[:20]))
    final = float(np.mean(losses[-20:]))
    assert final <= 0.5 * initial, (initial, final)
    assert elapsed < 120.0


def test_criterion_8_boxnet_contract():
    """Exactly one full-precision linear; soft-argmax matches the enumeration
    oracle within 1e-6; normalized heatmap slices sum to 1 within 1e-5."""
    p = BoxNetParams.create(feature_channels=4, joints=3, depth=2, seed=0)
    assert p.full_precision_linear_count() == 1

    rng = np.random.default_rng(3)
    values = rng.standard_normal((2, 3, 2, 4, 5))
    hm = Heatmap(joints=3, depth=2, height=4, width=5, values=values)
    probs = hm.normalized()
    np.testing.assert_allclose(probs.reshape(2, 3, -1).sum(axis=2), 1.0, atol=1e-5)

    out = soft_argmax(hm)
    zz, yy, xx = np.meshgrid(np.arange(2), np.arange(4), np.arange(5),
                             indexing="ij")
    for n in range(2):
        for j in range(3):
            w = probs[n, j]
            expected = [float((w * xx).sum()), float((w * yy).sum()),
                        float((w * zz).sum())]
            np.testing.assert_allclose(out[n, j], expected, atol=1e-6)


def test_criterion_9_preact_sign_collapse():
    """A mixed-sign probe through ReLU pre-activation (whose output is
    nonnegative) signs to all +1; the same probe through Hardtanh does not."""
    rng = np.random.default_rng(4)
    probe = rng.standard_normal((1, 4, 8, 8)).astype(np.float32)
    assert probe.min() < 0  # the probe itself carries both signs

    relu_act = PREACT["relu"](as_var(probe)).data
    assert relu_act.min() >= 0
    assert np.all(binary.sign_forward(relu_act) == 1.0)

    ht_act = PREACT["hardtanh"](as_var(probe)).data
    signs = binary.sign_forward(ht_act)
    assert np.any(signs == -1.0) and np.any(signs == 1.0)
