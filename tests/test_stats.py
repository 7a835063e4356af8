import dataclasses
import json
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bidrn import config, stats
from bidrn.errors import ConfigError
from bidrn.layers import (BlockResidualMode, ModuleKind, ModuleSpec, NetworkConfig,
                          build_network)
from bidrn.stats import LayerDesc, ModelStats, count_layer, model_stats

CONFIGS = pathlib.Path(__file__).resolve().parent.parent / "configs"
GOLDEN = CONFIGS / "tiny.stats.json"
PRESETS_GOLDEN = CONFIGS / "presets.stats.json"
PRESETS = ["base-lcr", "full-bidrb", *(f"table4a-step-{i}" for i in range(1, 6))]
CONFIG_FILES = ["tiny.json", "bin1x1-ds4.json"]


def golden_config(name: str) -> NetworkConfig:
    """A presets.stats.json entry's config: a preset name or a file in configs/."""
    if name in CONFIG_FILES:
        return config.load_config(str(CONFIGS / name))
    return config.preset_config(name)


class TestCountLayer:
    def test_reference_conv(self):
        # 64-in 64-out 3x3 binarized conv: 64*64*9 = 36864 latent parameters,
        # worth 1152 full-precision equivalents at 1/32
        desc = LayerDesc("conv", binarized=True, c_in=64, c_out=64,
                         kernel=3, padding=1)
        params, ops_, binarized = count_layer(desc, (64, 56, 56))
        assert params == 36864
        assert binarized
        assert params / 32 == 1152
        assert ops_ == 36864 * 56 * 56  # 115605504 MACs on a 56x56 map

    def test_fp_conv_counts(self):
        desc = LayerDesc("conv", c_in=3, c_out=8, kernel=1)
        params, ops_, binarized = count_layer(desc, (3, 4, 4))
        assert (params, ops_, binarized) == (24, 24 * 16, False)

    def test_strided_conv_output_extent(self):
        desc = LayerDesc("conv", c_in=2, c_out=2, kernel=3, stride=2, padding=1)
        _, ops_, _ = count_layer(desc, (2, 8, 8))
        assert ops_ == 2 * 2 * 9 * 4 * 4

    def test_deconv_counts_output_extent(self):
        desc = LayerDesc("deconv", binarized=True, c_in=2, c_out=3,
                         kernel=4, stride=2, padding=1)
        params, ops_, _ = count_layer(desc, (2, 5, 5))
        assert params == 3 * 2 * 16
        assert ops_ == params * 10 * 10

    def test_linear_with_bias(self):
        desc = LayerDesc("linear", c_in=6, c_out=14, bias=True)
        params, ops_, _ = count_layer(desc, (6, 1, 1))
        assert params == 14 * 6 + 14
        assert ops_ == 14 * 6

    def test_bn_and_rprelu(self):
        assert count_layer(LayerDesc("bn"), (4, 3, 3)) == (8, 2 * 4 * 9, False)
        assert count_layer(LayerDesc("rprelu"), (4, 3, 3)) == (12, 2 * 4 * 9, False)

    def test_channel_mismatch(self):
        with pytest.raises(ConfigError):
            count_layer(LayerDesc("conv", c_in=3, c_out=3, kernel=3), (4, 8, 8))

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            count_layer(LayerDesc("pool"), (1, 2, 2))


class TestModelStats:
    def test_empty_network_all_zero(self):
        cfg = NetworkConfig(input_shape=(3, 8, 8), blocks=[], head_out=0)
        s = model_stats(cfg)
        assert s.to_dict() == {"params_fp": 0, "params_bin_latent": 0,
                               "ops_fp": 0, "ops_bin": 0,
                               "params_effective_M": 0.0, "ops_effective_G": 0.0}

    def test_golden_tiny_config(self):
        cfg = NetworkConfig(
            input_shape=(3, 32, 32),
            blocks=[
                (ModuleSpec(ModuleKind.FUSION_UP, 3, 6),
                 BlockResidualMode.FULL_PRECISION_1X1),
                (ModuleSpec(ModuleKind.DOWN_SCALE, 6, 6, 2),
                 BlockResidualMode.FULL_PRECISION_1X1),
                (ModuleSpec(ModuleKind.BASE_LCR, 6, 6),
                 BlockResidualMode.NONE),
            ],
            head_out=14)
        golden = json.loads(GOLDEN.read_text())
        got = model_stats(cfg).to_dict()
        assert got["params_fp"] == golden["params_fp"]
        assert got["params_bin_latent"] == golden["params_bin_latent"]
        assert got["ops_fp"] == golden["ops_fp"]
        assert got["ops_bin"] == golden["ops_bin"]
        assert abs(got["params_effective_M"] - golden["params_effective_M"]) < 1e-12
        assert abs(got["ops_effective_G"] - golden["ops_effective_G"]) < 1e-12

    @given(st.integers(0, 10 ** 7), st.integers(0, 10 ** 7),
           st.integers(0, 10 ** 10), st.integers(0, 10 ** 10))
    @settings(max_examples=40, deadline=None)
    def test_effective_formulas(self, pf, pb, of, ob):
        s = ModelStats(params_fp=pf, params_bin_latent=pb, ops_fp=of, ops_bin=ob)
        assert s.params_effective == pf + pb / 32
        assert s.ops_effective == of + ob / 64
        d = s.to_dict()
        assert d["params_effective_M"] == s.params_effective / 1e6
        assert d["ops_effective_G"] == s.ops_effective / 1e9

    def test_binarized_routing(self):
        s = ModelStats()
        s.add(100, 1000, binarized=True)
        s.add(7, 13, binarized=False)
        assert (s.params_fp, s.params_bin_latent) == (7, 100)
        assert (s.ops_fp, s.ops_bin) == (13, 1000)

    def test_invalid_config_rejected(self):
        cfg = NetworkConfig(
            input_shape=(3, 8, 8),
            blocks=[(ModuleSpec(ModuleKind.BASE_LCR, 4, 4), BlockResidualMode.NONE)])
        with pytest.raises(ConfigError):
            model_stats(cfg)


class TestEnumerateLayers:
    def base_cfg(self, kind, ci, co, s=1, br=2, mode=BlockResidualMode.NONE):
        return NetworkConfig(input_shape=(ci, 8, 8),
                             blocks=[(ModuleSpec(kind, ci, co, s, br),
                                      mode)],
                             head_out=0)

    def test_base_lcr_layer_set(self):
        names = [n for n, _, _ in
                 stats.enumerate_layers(self.base_cfg(ModuleKind.BASE_LCR, 4, 4))]
        assert names == ["block0.m0.lcr.conv", "block0.m0.lcr.rprelu",
                         "block0.m0.lcr.bn"]

    def test_fusion_up_has_two_branches_and_out_bn(self):
        names = [n for n, _, _ in
                 stats.enumerate_layers(self.base_cfg(ModuleKind.FUSION_UP, 4, 8))]
        assert sum(n.startswith("block0.m0.b.") for n in names) == 3
        assert names[-1] == "block0.m0.out_bn"

    def test_down_sample_four_branches(self):
        cfg = self.base_cfg(ModuleKind.DOWN_SAMPLE, 3, 12, s=2, br=4)
        names = [n for n, _, _ in stats.enumerate_layers(cfg)]
        assert sum(".conv" in n for n in names) == 4

    def test_block_residual_counted(self):
        cfg = self.base_cfg(ModuleKind.BASE_LCR, 4, 4,
                            mode=BlockResidualMode.BINARIZED_1X1)
        entries = {n: d for n, d, _ in stats.enumerate_layers(cfg)}
        assert entries["block0.br.bin1x1"].binarized

    def test_head_shape_follows_chain(self):
        cfg = NetworkConfig(
            input_shape=(3, 8, 8),
            blocks=[(ModuleSpec(ModuleKind.FUSION_UP, 3, 6), BlockResidualMode.NONE)],
            head_out=5)
        name, desc, in_shape = list(stats.enumerate_layers(cfg))[-1]
        assert name == "head"
        assert desc.c_in == 6 and desc.c_out == 5

    def test_mode_independent_of_block_residual_kind(self):
        # fp vs binarized shortcut moves the same counts between columns
        fp = model_stats(self.base_cfg(ModuleKind.BASE_LCR, 4, 4,
                                       mode=BlockResidualMode.FULL_PRECISION_1X1))
        bin_ = model_stats(self.base_cfg(ModuleKind.BASE_LCR, 4, 4,
                                         mode=BlockResidualMode.BINARIZED_1X1))
        assert fp.params_fp + fp.params_bin_latent \
            == bin_.params_fp + bin_.params_bin_latent
        assert fp.ops_fp + fp.ops_bin == bin_.ops_fp + bin_.ops_bin
        assert fp.params_effective > bin_.params_effective


def presets_stats_text() -> str:
    doc = {name: model_stats(golden_config(name)).to_dict() for name in PRESETS + CONFIG_FILES}
    return json.dumps(doc, indent=2) + "\n"


def test_presets_stats_golden_byte_for_byte():
    """model_stats of every init-config preset and of the configs/ files, as
    written by the accounting the single layer walk replaced."""
    assert presets_stats_text() == PRESETS_GOLDEN.read_text()


@pytest.mark.parametrize("name", PRESETS + CONFIG_FILES + ["tiny.json:headless"])
def test_layers_join_named_parameters(name):
    """Each counted layer's params equal the sizes of the named_parameters()
    entries under its name, each parameter has one owning layer (a zero-size
    head has none), and a layer is binarized exactly when it owns a .latent
    weight."""
    cfg = golden_config(name.split(":")[0])
    if name.endswith(":headless"):
        cfg = dataclasses.replace(cfg, head_out=0)
    params = build_network(cfg).named_parameters()
    owners = {key: [] for key in params}
    for layer, desc, in_shape in stats.enumerate_layers(cfg):
        owned = [key for key in params if key == layer or key.startswith(layer + ".")]
        for key in owned:
            owners[key].append(layer)
        counted, _, binarized = count_layer(desc, in_shape)
        assert owned and counted == sum(params[key].data.size for key in owned), layer
        assert binarized == (owned == [layer + ".latent"]), layer
    for key, layers in owners.items():
        if cfg.head_out == 0 and key.startswith("head."):
            assert not layers and params[key].data.size == 0, key
        else:
            assert len(layers) == 1, (key, layers)
