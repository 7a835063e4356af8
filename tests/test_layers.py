import hashlib
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidrn import bench, binary, config, layers, ops, tensor
from bidrn.autograd import Parameter, as_var
from bidrn.boxnet import BoxNetParams
from bidrn.errors import ConfigError, DimensionError
from bidrn.layers import (BidrbBlock, BlockResidual, BlockResidualMode,
                          LcrLayer, ModuleKind, ModuleSpec, NetworkConfig,
                          LinearParams, RPReLUParams, build_module, build_network,
                          module_out_shape)

REPO = pathlib.Path(__file__).resolve().parent.parent
PRESETS = ["base-lcr", "full-bidrb", *(f"table4a-step-{i}" for i in range(1, 6))]


def rprelu_eval(x, p):
    return ops.rprelu(as_var(np.asarray(x, dtype=np.float32).reshape(1, 1, 1, 1)),
                      p).data.item()


def zeroed_lcr(channels, stride=1):
    layer = LcrLayer.create(channels, stride, np.random.default_rng(0))
    layer.conv.latent_weights.data[:] = 0.0
    return layer


class TestRPReLU:
    def test_default_init_positive_passthrough(self):
        p = RPReLUParams.create(1)
        assert rprelu_eval(1.5, p) == 1.5

    def test_default_init_negative_slope(self):
        p = RPReLUParams.create(1)
        assert rprelu_eval(-2.0, p) == -0.5

    def test_shifted_hand_cases(self):
        p = RPReLUParams.create(1)
        p.gamma.data[:] = 1.0
        p.zeta.data[:] = 0.5
        # o > gamma: o - gamma + zeta
        assert abs(rprelu_eval(1.5, p) - 1.0) < 1e-6
        # o <= gamma: beta*(o - gamma) + zeta
        assert abs(rprelu_eval(0.5, p) - 0.375) < 1e-6

    def test_identity_settings(self):
        p = RPReLUParams.create(3)
        p.beta.data[:] = 1.0
        x = np.random.default_rng(1).standard_normal((2, 3, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(ops.rprelu(as_var(x), p).data, x, atol=1e-6)

    def test_per_channel(self):
        p = RPReLUParams.create(2)
        p.beta.data[:] = [0.0, 1.0]
        x = -np.ones((1, 2, 2, 2), dtype=np.float32)
        y = ops.rprelu(as_var(x), p).data
        np.testing.assert_array_equal(y[0, 0], np.zeros((2, 2)))
        np.testing.assert_array_equal(y[0, 1], -np.ones((2, 2)))


def where_rprelu(o, gamma, zeta, beta, g):
    """RPReLU's output and its o, gamma, zeta and beta gradients for cotangent
    g, written with two-branch np.where formulas."""
    gc, bc = gamma[:, None, None], beta[:, None, None]
    shifted = o - gc
    mask = o > gc
    y = np.where(mask, shifted, bc * shifted) + zeta[:, None, None]
    slope = np.where(mask, 1.0, bc)
    return (y, g * slope, -(g * slope).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3)),
            (g * np.where(mask, 0.0, shifted)).sum(axis=(0, 2, 3)))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rprelu_matches_where_formula(dtype):
    """Output and all four gradients equal the np.where formulas, with NaN in
    the same places, on ties o == gamma, signed zeros, infinities and NaN, and
    with positive, negative and zero beta."""
    rng = np.random.default_rng(12)
    p = RPReLUParams.create(4)
    for q in (p.gamma, p.zeta, p.beta):
        q.data = q.data.astype(dtype)
    p.gamma.data[:] = [0.0, 0.5, -0.25, 0.0]
    p.zeta.data[:] = [0.0, 0.1, -0.3, -0.0]
    p.beta.data[:] = [0.25, -0.5, 0.0, 1.5]
    o = Parameter(rng.standard_normal((3, 4, 5, 6)))
    o.data = o.data.astype(dtype)
    o.data[0, :, 0, :6] = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-30]
    o.data[1, :, 1, :2] = p.gamma.data[:, None]  # ties
    o.data[2, :, 2, 0] = -p.gamma.data
    g = rng.standard_normal(o.data.shape).astype(dtype)
    g[2, :, 0, 0] = 0.0
    with np.errstate(invalid="ignore"):
        want = where_rprelu(o.data, p.gamma.data, p.zeta.data, p.beta.data, g)
        y = ops.rprelu(o, p)
        y._backward(g)
    got = (y.data, o.grad, p.gamma.grad, p.zeta.grad, p.beta.grad)
    for name, a, b in zip(["y", "o", "gamma", "zeta", "beta"], got, want):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape, name
        np.testing.assert_array_equal(a, b, err_msg=name)


class TestModuleSpec:
    @pytest.mark.parametrize("kind,ci,co,s,br", [
        (ModuleKind.BASE_LCR, 4, 4, 1, 2),
        (ModuleKind.DOWN_SCALE, 4, 4, 2, 2),
        (ModuleKind.FUSION_UP, 4, 8, 1, 2),
        (ModuleKind.FUSION_DOWN, 4, 2, 1, 2),
        (ModuleKind.DOWN_SAMPLE, 4, 8, 2, 2),
        (ModuleKind.DOWN_SAMPLE, 4, 16, 2, 4),
    ])
    def test_valid_geometry(self, kind, ci, co, s, br):
        ModuleSpec(kind, ci, co, s, br).validate()

    @pytest.mark.parametrize("kind,ci,co,s,br", [
        (ModuleKind.BASE_LCR, 4, 5, 1, 2),
        (ModuleKind.DOWN_SCALE, 4, 4, 1, 2),
        (ModuleKind.FUSION_UP, 4, 7, 1, 2),
        (ModuleKind.FUSION_DOWN, 5, 2, 1, 2),
        (ModuleKind.DOWN_SAMPLE, 4, 12, 2, 3),
    ])
    def test_invalid_geometry(self, kind, ci, co, s, br):
        with pytest.raises(ConfigError):
            ModuleSpec(kind, ci, co, s, br).validate()

    def test_out_shape_chain_break(self):
        spec = ModuleSpec(ModuleKind.BASE_LCR, 4, 4)
        with pytest.raises(ConfigError):
            module_out_shape(spec, (3, 8, 8))
        with pytest.raises(ConfigError):
            module_out_shape(ModuleSpec(ModuleKind.DOWN_SCALE, 4, 4, 2), (4, 7, 8))


SHAPE_CASES = [
    (ModuleKind.BASE_LCR, 4, 4, 1, 2),
    (ModuleKind.DOWN_SCALE, 4, 4, 2, 2),
    (ModuleKind.FUSION_UP, 3, 6, 1, 2),
    (ModuleKind.FUSION_DOWN, 6, 3, 1, 2),
    (ModuleKind.DOWN_SAMPLE, 3, 6, 2, 2),
    (ModuleKind.DOWN_SAMPLE, 3, 12, 2, 4),
]


class TestModuleShapes:
    @pytest.mark.parametrize("kind,ci,co,s,br", SHAPE_CASES)
    def test_forward_matches_declared_shape(self, kind, ci, co, s, br):
        spec = ModuleSpec(kind, ci, co, s, br)
        mod = build_module(spec, np.random.default_rng(2))
        x = np.random.default_rng(3).standard_normal((2, ci, 8, 8)).astype(np.float32)
        y = mod.forward(as_var(x), "hardtanh", False)
        want = module_out_shape(spec, (ci, 8, 8))
        assert y.data.shape == (2,) + want

    @given(st.integers(1, 4), st.sampled_from([4, 6, 8]), st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_base_lcr_preserves_shape(self, c, hw, seed):
        rng = np.random.default_rng(seed)
        mod = build_module(ModuleSpec(ModuleKind.BASE_LCR, c, c), rng)
        x = rng.standard_normal((1, c, hw, hw)).astype(np.float32)
        assert mod.forward(as_var(x), "hardtanh", False).data.shape == x.shape

    def test_down_scale_odd_extent_raises(self):
        layer = LcrLayer.create(2, 2)
        x = np.ones((1, 2, 5, 6), dtype=np.float32)
        with pytest.raises(DimensionError):
            layers.lcr_forward(as_var(x), layer)

    def test_fusion_down_odd_channels_raises(self):
        mod = build_module(ModuleSpec(ModuleKind.FUSION_DOWN, 2, 1),
                           np.random.default_rng(0))
        with pytest.raises(DimensionError):
            mod.forward(as_var(np.ones((1, 3, 4, 4), dtype=np.float32)))


class TestZeroWeightComposition:
    """With zero latent weights (alpha = 0) the 1-bit conv vanishes, so each
    module collapses to its shortcut path; in inference mode BN is near-identity."""

    def test_lcr_reduces_to_preact(self):
        layer = zeroed_lcr(2)
        x = np.random.default_rng(4).standard_normal((1, 2, 4, 4)).astype(np.float32)
        y = layers.lcr_forward(as_var(x), layer).data
        np.testing.assert_allclose(y, ops.hardtanh(x).data, atol=1e-4)

    def test_down_scale_reduces_to_pooled_preact(self):
        layer = zeroed_lcr(2, stride=2)
        x = np.random.default_rng(5).standard_normal((1, 2, 4, 4)).astype(np.float32)
        y = layers.lcr_forward(as_var(x), layer).data
        want = tensor.avg_pool2d(ops.hardtanh(x).data, 2, 2)
        np.testing.assert_allclose(y, want, atol=1e-4)

    def test_fusion_down_reduces_to_half_sum(self):
        mod = build_module(ModuleSpec(ModuleKind.FUSION_DOWN, 4, 2),
                           np.random.default_rng(0))
        mod.branches = [zeroed_lcr(2), zeroed_lcr(2)]
        x = np.random.default_rng(6).standard_normal((1, 4, 4, 4)).astype(np.float32)
        y = mod.forward(as_var(x)).data
        ht = ops.hardtanh(x).data
        np.testing.assert_allclose(y, ht[:, :2] + ht[:, 2:], atol=1e-4)


class TestFusionUp:
    def test_identical_branches_give_identical_halves(self):
        mod = build_module(ModuleSpec(ModuleKind.FUSION_UP, 3, 6),
                           np.random.default_rng(7))
        mod.branches = [mod.branches[0]] * 2
        x = np.random.default_rng(8).standard_normal((1, 3, 4, 4)).astype(np.float32)
        y = mod.forward(as_var(x)).data
        np.testing.assert_array_equal(y[:, :3], y[:, 3:])

    def test_distinct_branches_differ(self):
        rng = np.random.default_rng(9)
        mod = build_module(ModuleSpec(ModuleKind.FUSION_UP, 3, 6), rng)
        x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        y = mod.forward(as_var(x)).data
        assert not np.array_equal(y[:, :3], y[:, 3:])


class TestDownSample:
    def test_four_branch_geometry(self):
        spec = ModuleSpec(ModuleKind.DOWN_SAMPLE, 3, 12, 2, branches=4)
        mod = build_module(spec, np.random.default_rng(10))
        assert len(mod.branches) == 4
        x = np.random.default_rng(11).standard_normal((1, 3, 8, 8)).astype(np.float32)
        y = mod.forward(as_var(x), "hardtanh", False)
        assert y.data.shape == (1, 12, 4, 4)

    def test_branch_concat_order(self):
        rng = np.random.default_rng(12)
        mod = build_module(ModuleSpec(ModuleKind.DOWN_SAMPLE, 2, 4, 2), rng)
        mod.out_bn = None  # compare the raw concat
        x = rng.standard_normal((1, 2, 4, 4)).astype(np.float32)
        y = mod.forward(as_var(x)).data
        first = layers.lcr_forward(as_var(x), mod.branches[0]).data
        np.testing.assert_allclose(y[:, :2], first, atol=1e-6)


class TestBlockResidual:
    def test_none_mode_returns_none(self):
        assert BlockResidual.create(BlockResidualMode.NONE, 3, 3, 1) is None

    def test_fp_identity_kernel(self):
        br = BlockResidual.create(BlockResidualMode.FULL_PRECISION_1X1, 3, 3, 1,
                                  np.random.default_rng(13))
        br.weights.data[:] = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        x = np.random.default_rng(14).standard_normal((1, 3, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(br.forward(as_var(x)).data, x, atol=1e-6)

    def test_strided_pools_first(self):
        br = BlockResidual.create(BlockResidualMode.FULL_PRECISION_1X1, 2, 2, 2,
                                  np.random.default_rng(15))
        br.weights.data[:] = np.eye(2, dtype=np.float32).reshape(2, 2, 1, 1)
        x = np.random.default_rng(16).standard_normal((1, 2, 4, 4)).astype(np.float32)
        np.testing.assert_allclose(br.forward(as_var(x)).data,
                                   tensor.avg_pool2d(x, 2, 2), atol=1e-6)

    def test_binarized_shortcut_signs(self):
        br = BlockResidual.create(BlockResidualMode.BINARIZED_1X1, 2, 3, 1,
                                  np.random.default_rng(17))
        x = np.random.default_rng(18).standard_normal((1, 2, 4, 4)).astype(np.float32)
        y = br.forward(as_var(x)).data
        want = binary.binary_conv2d_packed(x, br.weights)[0]
        np.testing.assert_allclose(y, want, atol=1e-6)


class TestBidrbBlock:
    def test_recomposition(self):
        # block forward == module forward + shortcut forward, to float accuracy
        rng = np.random.default_rng(19)
        spec = ModuleSpec(ModuleKind.FUSION_UP, 3, 6)
        mod = build_module(spec, rng)
        br = BlockResidual.create(BlockResidualMode.FULL_PRECISION_1X1, 3, 6, 1, rng)
        block = BidrbBlock(modules=[mod], residual=br)
        x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        got = block.forward(as_var(x)).data
        want = mod.forward(as_var(x), "hardtanh", False).data \
            + br.forward(as_var(x)).data
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_multi_module_main_path(self):
        rng = np.random.default_rng(20)
        specs = [ModuleSpec(ModuleKind.FUSION_UP, 3, 6),
                 ModuleSpec(ModuleKind.BASE_LCR, 6, 6)]
        mods = [build_module(s, rng) for s in specs]
        block = BidrbBlock(modules=mods, residual=None)
        x = rng.standard_normal((1, 3, 4, 4)).astype(np.float32)
        assert block.forward(as_var(x)).data.shape == (1, 6, 4, 4)


def tiny_config(preact="hardtanh", seed=0):
    return NetworkConfig(
        input_shape=(3, 8, 8),
        blocks=[
            (ModuleSpec(ModuleKind.FUSION_UP, 3, 6),
             BlockResidualMode.FULL_PRECISION_1X1),
            (ModuleSpec(ModuleKind.DOWN_SCALE, 6, 6, 2),
             BlockResidualMode.NONE),
        ],
        preact=preact, seed=seed, head_out=5)


class TestNetwork:
    def test_forward_shape(self):
        net = build_network(tiny_config())
        x = np.random.default_rng(21).standard_normal((2, 3, 8, 8)).astype(np.float32)
        assert net.forward(as_var(x)).data.shape == (2, 5)

    def test_build_determinism(self):
        a = build_network(tiny_config(seed=3))
        b = build_network(tiny_config(seed=3))
        for name, p in a.named_parameters().items():
            np.testing.assert_array_equal(p.data, b.named_parameters()[name].data)
        x = np.random.default_rng(22).standard_normal((1, 3, 8, 8)).astype(np.float32)
        np.testing.assert_array_equal(a.forward(as_var(x)).data,
                                      b.forward(as_var(x)).data)

    def test_zero_grad_rebuilds_no_state(self, monkeypatch):
        """zero_grad clears every Parameter's gradient by walking a sequence
        collected once, not the state dict rebuilt each training step."""
        net = build_network(tiny_config())
        net.zero_grad()
        x = np.random.default_rng(23).standard_normal((2, 3, 8, 8)).astype(np.float32)
        ops.l1_loss(net.forward(x, training=True), np.zeros((2, 5))).backward()
        params = list(net.named_parameters().values())
        assert all(p.grad is not None for p in params)
        calls = []
        real = layers.state_of
        monkeypatch.setattr(layers, "state_of", lambda pairs: calls.append(1) or real(pairs))
        net.zero_grad()
        assert calls == []
        assert all(p.grad is None for p in params)

    def test_seed_changes_parameters(self):
        a = build_network(tiny_config(seed=0))
        b = build_network(tiny_config(seed=1))
        assert not np.array_equal(a.head.weight.data, b.head.weight.data)

    def test_invalid_chain_rejected(self):
        cfg = NetworkConfig(
            input_shape=(3, 8, 8),
            blocks=[(ModuleSpec(ModuleKind.BASE_LCR, 4, 4), BlockResidualMode.NONE)],
            head_out=5)
        with pytest.raises(ConfigError):
            build_network(cfg)

    def test_unknown_preact_rejected(self):
        with pytest.raises(ConfigError):
            build_network(tiny_config(preact="gelu"))


class TestPreactSignBehaviour:
    """A bounded pre-activation keeps mixed signs flowing into the 1-bit conv;
    ReLU clamps negatives to zero, which signs to +1 and starves the kernel."""

    def probe(self):
        rng = np.random.default_rng(23)
        return rng.standard_normal((1, 4, 6, 6)).astype(np.float32)

    def test_relu_probe_signs_collapse(self):
        a = ops.PREACT["relu"](as_var(self.probe())).data
        assert np.all(binary.sign_forward(a) == 1.0)

    def test_hardtanh_probe_keeps_both_signs(self):
        a = ops.PREACT["hardtanh"](as_var(self.probe())).data
        s = binary.sign_forward(a)
        assert np.any(s == 1.0) and np.any(s == -1.0)


def state_digest(state: dict) -> str:
    """sha256 over each state entry's name, dtype, shape and bytes, in order."""
    h = hashlib.sha256()
    for name, v in state.items():
        a = v.data if isinstance(v, Parameter) else v
        h.update(f"{name} {a.dtype.str} {a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def box_head(seed):
    return BoxNetParams.create(feature_channels=6, seed=seed)


def box_components(p: BoxNetParams) -> list:
    return [p.heat_conv, p.heat_proj, *p.deconvs, p.box_proj, *p.size_linears, p.final_linear]


# The built state of constructions that no other golden pins: the binarized
# 1x1 shortcut, perfbench's infer-wide network and the box head.
CONSTRUCTION_DIGESTS = {
    "bin1x1-ds4": (
        lambda: build_network(config.load_config(REPO / "configs" / "bin1x1-ds4.json")).state(),
        "7c4fc787802b9642ed0da75c5df19345ee2a0a327318361cd0fd4bb2b402f138"),
    "infer-wide": (
        lambda: build_network(bench.wide_config()).state(),
        "61f0d42126984b83d2f7bdd228edf5cb41ab4bfa2a035b349144bcd6fcd8da68"),
    "box-seed0": (
        lambda: box_head(0).named_parameters(),
        "bc12e9a15d926426945ed676255f9b25c317614edc040f9264fd04e92f432d17"),
    "box-seed11": (
        lambda: box_head(11).named_parameters(),
        "eaf460e6d93f6534bf41735cae0ec5d481f4fdd7e6c9e746f5ccc1e8ab9e51a4"),
}


def drawn_weights(components) -> list:
    """(Parameter, fan_in) of every weight the builders draw among
    ``components``: 1-bit latents, full-precision 1x1 shortcuts (a bare
    Parameter) and linear weights. RPReLU and BatchNorm start constant."""
    drawn = []
    for c in components:
        if isinstance(c, Parameter):
            drawn.append((c, math.prod(c.data.shape[1:])))
        elif isinstance(c, (binary.BinaryConv2dParams, binary.BinaryLinearParams)):
            drawn.append((c.latent_weights, c.fan_in))
        elif isinstance(c, LinearParams):
            drawn.append((c.weight, c.weight.data.shape[1]))
    return drawn


@pytest.fixture
def initializer_calls(monkeypatch):
    """Every Parameter that binary.fan_in_uniform returns while the test
    runs, through any bidrn module's binding of it."""
    made = []
    real = binary.fan_in_uniform

    def counting(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "bidrn" and getattr(module, "fan_in_uniform", None) is real:
            monkeypatch.setattr(module, "fan_in_uniform", counting)
    return made


class TestConstruction:
    """Every drawn weight comes from one He-uniform initializer, one call
    per weight, and every builder makes float32."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTION_DIGESTS))
    def test_built_state_digest(self, name):
        build, want = CONSTRUCTION_DIGESTS[name]
        state = build()
        assert {v.dtype for v in state.values()} == {np.dtype(np.float32)}
        assert state_digest(state) == want

    def assert_one_bounded_draw_each(self, drawn, made):
        assert len(made) == len(drawn)
        assert {id(p) for p in made} == {id(w) for w, _ in drawn}
        for w, fan_in in drawn:
            bound = np.float32(np.sqrt(6.0 / fan_in))
            assert w.data.dtype == np.float32
            assert 0.5 * bound < np.abs(w.data).max() <= bound

    @pytest.mark.parametrize("name", PRESETS)
    def test_preset_draws(self, initializer_calls, name):
        net = build_network(config.preset_config(name))
        components = [c for group in net.layers for _, c in group]
        self.assert_one_bounded_draw_each(drawn_weights(components), initializer_calls)

    @pytest.mark.parametrize("seed", [0, 11])
    def test_box_head_draws(self, initializer_calls, seed):
        drawn = drawn_weights(box_components(box_head(seed)))
        assert len(drawn) == 7  # every component draws its weight
        self.assert_one_bounded_draw_each(drawn, initializer_calls)
