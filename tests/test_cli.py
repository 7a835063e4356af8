import csv
import dataclasses
import io
import json
import pathlib
import struct

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from bidrn import bench, binary, config, gradcheck, train
from bidrn.cli import main
from bidrn.errors import ConfigError, TrainingError
from bidrn.layers import build_network

REPO = pathlib.Path(__file__).resolve().parent.parent
TINY = REPO / "configs" / "tiny.json"
GOLDEN = REPO / "configs" / "tiny.stats.json"
TRAIN_GOLDEN = REPO / "configs" / "full-bidrb.train7.csv"
CKPT_GOLDEN = REPO / "configs" / "full-bidrb.train7.ckpt"


@pytest.fixture
def runner():
    return CliRunner()


class TestVerifyCommand:
    def test_passes(self, runner):
        result = runner.invoke(main, ["verify", "--cases", "10"])
        assert result.exit_code == 0
        assert "[PASS] kernel-equivalence" in result.output
        assert "total:" in result.output

    def test_cases_contract(self, runner):
        result = runner.invoke(main, ["verify", "--cases", "4", "--seed", "3"])
        assert result.exit_code == 0
        # three full suites at 4 cases plus the capped shape suite
        assert "total: 16 passed" in result.output

    def test_failure_exits_one(self, runner, monkeypatch):
        real = binary.xnor_popcount_matmul
        monkeypatch.setattr(binary, "xnor_popcount_matmul", lambda a, w: real(a, w) + 1)
        result = runner.invoke(main, ["verify", "--cases", "10"])
        assert result.exit_code == 1
        assert "FAIL" in result.output

    @pytest.mark.parametrize("cases", ["0", "-2"])
    def test_non_positive_cases_exits_two(self, runner, cases):
        result = runner.invoke(main, ["verify", "--cases", cases])
        assert result.exit_code == 2
        assert "--cases" in result.output and "PASS" not in result.output


class TestGradcheckCommand:
    """The command reports the session's one gradcheck sweep (conftest's
    ``gradcheck_sweep``) in place of running it again."""

    @pytest.fixture
    def swept(self, monkeypatch, gradcheck_sweep):
        results = dict(gradcheck_sweep[0])
        monkeypatch.setattr(gradcheck, "run_all", lambda seed: results)
        return results

    def test_all_rules_pass(self, runner, swept):
        result = runner.invoke(main, ["gradcheck"])
        assert result.exit_code == 0
        assert "FAIL" not in result.output
        assert "binary_conv2d" in result.output
        assert "saturated-input probe gradient: [0.0, 0.0, 0.0, 0.0]" \
            in result.output

    def test_rule_above_tolerance_fails(self, runner, swept):
        swept["binary_conv2d"] = 2 * gradcheck.REL_TOL
        result = runner.invoke(main, ["gradcheck"])
        assert result.exit_code == 1
        fails = [line for line in result.output.splitlines() if line.startswith("[FAIL]")]
        assert len(fails) == 1 and fails[0].startswith("[FAIL] binary_conv2d: ")


class TestStatsCommand:
    def test_golden_byte_for_byte(self, runner):
        result = runner.invoke(main, ["stats", "--config", str(TINY)])
        assert result.exit_code == 0
        assert result.output == GOLDEN.read_text()

    def test_missing_config_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["stats", "--config",
                                      str(tmp_path / "nope.json")])
        assert result.exit_code == 2
        assert "config error" in result.output

    def test_invalid_json_exits_two(self, runner, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        result = runner.invoke(main, ["stats", "--config", str(bad)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("text", [b"\xff\xfe{}", b"[" * 100000,
                                      b'{"seed": 1' + b"0" * 5000 + b"}"],
                             ids=["not-utf8", "nested-100000", "int-5001-digits"])
    def test_undecodable_config_exits_two_with_one_line(self, runner, tmp_path, text):
        """A file that is not UTF-8, JSON nested too deep for the parser, or an
        integer longer than Python converts is a config error: exit 2 and one
        stderr line, not a traceback."""
        bad = tmp_path / "bad.json"
        bad.write_bytes(text)
        result = runner.invoke(main, ["stats", "--config", str(bad)])
        assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr.startswith(f"config error: {bad}: ")
        assert result.stderr.count("\n") == 1

    def test_broken_chain_exits_two(self, runner, tmp_path):
        doc = json.loads(TINY.read_text())
        doc["blocks"][1]["in_channels"] = 5
        bad = tmp_path / "chain.json"
        bad.write_text(json.dumps(doc))
        result = runner.invoke(main, ["stats", "--config", str(bad)])
        assert result.exit_code == 2


# Edits of tiny.json, each the JSON text that replaces one value with one
# that config_from_dict must reject with ConfigError.
MALFORMED = {
    "head-not-object": ('"head": {"out_features": 14}', '"head": 5'),
    "preact-unhashable": ('"preact": "hardtanh"', '"preact": [1]'),
    "head-out-negative": ('"out_features": 14', '"out_features": -1'),
    "seed-negative": ('"seed": 0', '"seed": -1'),
    "seed-overflow": ('"seed": 0', '"seed": 1e400'),
    "input-shape-overflow": ('"input_shape": [3, 32, 32]', '"input_shape": [1e400, 8, 8]'),
    "seed-fraction": ('"seed": 0', '"seed": 2.7'),
    "head-out-bool": ('"out_features": 14', '"out_features": true'),
    "input-shape-fraction": ('"input_shape": [3, 32, 32]', '"input_shape": [3, 32.5, 32]'),
    "stride-fraction": ('"stride": 2', '"stride": 2.9'),
    "block-unknown-key": ('"block_residual": "none"', '"block_residul": "none"'),
    "top-unknown-key": ('"seed": 0', '"sed": 0'),
    "head-unknown-key": ('"out_features": 14', '"out_feature": 14'),
}


def malformed_text(case):
    old, new = MALFORMED[case]
    text = TINY.read_text()
    assert text.count(old) == 1
    return text.replace(old, new)


class TestMalformedConfig:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_config_error(self, case):
        with pytest.raises(ConfigError):
            config.config_from_dict(json.loads(malformed_text(case)))

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_cli_exits_two(self, runner, tmp_path, case):
        bad = tmp_path / "bad.json"
        bad.write_text(malformed_text(case))
        result = runner.invoke(main, ["stats", "--config", str(bad)])
        assert result.exit_code == 2
        assert "config error" in result.output

    @pytest.mark.parametrize("value", ["nested", "long-int"])
    @pytest.mark.parametrize("key", ["seed", "preact", "head", "input_shape"])
    def test_unprintable_value_config_error(self, key, value):
        """A value nested 5000 lists deep once raised RecursionError while
        its repr was formatted into the message. A 5001-digit preact raised
        ValueError there, and a 5001-digit seed was accepted, though no
        message could print it."""
        doc = json.loads(TINY.read_text())
        if value == "nested":
            doc[key] = 0
            for _ in range(5000):
                doc[key] = [doc[key]]
        else:
            doc[key] = 10 ** 5000
        with pytest.raises(ConfigError):
            config.config_from_dict(doc)

    def test_build_network_rejects_negative_seed(self):
        cfg = config.preset_config("full-bidrb")
        cfg.seed = -1
        with pytest.raises(ConfigError):
            build_network(cfg)


MALFORMED_DIR = REPO / "tests" / "data" / "malformed"
# Each file of MALFORMED_DIR, with a part of the one line it must print.
MALFORMED_FILES = {
    "channels-bool.json": "blocks[0].in_channels: expected an integer, got True",
    "channels-fraction.json": "blocks[0].in_channels: expected an integer, got 3.5",
    "int-5001-digits.json": "integer longer than 4300 digits",
    "nested-100000.json": "JSON nested too deeply",
    "not-utf8.json": "not UTF-8 text",
    "unknown-key.json": "unknown key 'preactivation'",
    "unknown-kind.json": "unknown kind 'base_lrc'",
}


# Each checkpoint of MALFORMED_DIR, with a part of the ConfigError message that
# load_checkpoint, or load_network_state into the full-bidrb network, raises.
# The records are little-endian, as save_checkpoint writes them.
MALFORMED_CHECKPOINTS = {
    # rank 1500, then 6000 bytes of 0xff: a size of over 14,000 digits
    "extents-too-long.ckpt": "the record at byte 6017 needs more than the 0 bytes left",
    "bad-magic.ckpt": "bad checkpoint magic b'BIDRNW00'",
    "truncated-data.ckpt": "the record at byte 29 needs more than the 53 bytes left",
    "name-not-utf8.ckpt": "entry name at byte 12 is not UTF-8",
    "duplicate-entry.ckpt": "entry 'head.bias' appears twice",
    # 65 extents of 1, more axes than numpy allows
    "rank-65.ckpt": "'head.bias' has a shape numpy cannot hold: maximum supported dimension",
    # extents (0, 2**32 - 1, 2**32 - 1, 2**32 - 1): no data, but too big to shape
    "extents-overflow.ckpt": "'head.bias' has a shape numpy cannot hold: array is too big",
    "unknown-entry.ckpt": "checkpoint has unknown entry 'head.scale'",
    "misshapen-entry.ckpt": "checkpoint head.bias: shape (2, 7) does not match (14,)",
    "missing-entries.ckpt": "checkpoint is missing 81 entries, first 'block0.m0.a.conv.latent'",
}


def test_malformed_corpus_is_listed():
    assert sorted(p.name for p in MALFORMED_DIR.iterdir()) == \
        sorted(MALFORMED_FILES | MALFORMED_CHECKPOINTS)


@pytest.mark.parametrize("name", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_corpus_is_config_error(name):
    net = build_network(config.preset_config("full-bidrb"))
    before = {k: v.copy() for k, v in config.network_state(net).items()}
    with pytest.raises(ConfigError) as info:
        config.load_network_state(net, config.load_checkpoint(str(MALFORMED_DIR / name)))
    assert MALFORMED_CHECKPOINTS[name] in str(info.value)
    after = config.network_state(net)
    assert all(np.array_equal(before[k], after[k]) for k in before)


@pytest.mark.parametrize("command", [["stats"], ["train-toy", "--steps", "1"]],
                         ids=["stats", "train-toy"])
@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_corpus_exits_two_with_one_line(runner, command, name):
    """Every file of the malformed-config corpus is a config error on every
    command that reads a config: exit 2 and one stderr line, no traceback."""
    result = runner.invoke(main, [*command, "--config", str(MALFORMED_DIR / name)])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stdout == "" and "Traceback" not in result.output
    assert result.stderr.startswith("config error: ") and result.stderr.count("\n") == 1
    assert MALFORMED_FILES[name] in result.stderr


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2 ** 70, 2 ** 70) | st.floats()
    | st.text(max_size=8) | st.sampled_from([1e400, -1e400, 0, 1, 2, 4, 6, "none"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=5)


def config_slots():
    """(path, key) for every top-level key and every key of every block of the
    full-bidrb preset, plus the optional keys it leaves out."""
    doc = config.config_to_dict(config.preset_config("full-bidrb"))
    slots = [((), key) for key in doc] + [(("head",), "out_features")]
    for i, entry in enumerate(doc["blocks"]):
        slots += [(("blocks", i), key) for key in [*entry, "branches"]]
    return doc, slots


FUZZ_DOC, FUZZ_SLOTS = config_slots()


@settings(max_examples=400, deadline=None)
@given(st.sampled_from(FUZZ_SLOTS), JSON_VALUES)
def test_fuzzed_config_value_raises_only_config_error(slot, value):
    """One value of a valid config replaced by any JSON value: config_from_dict
    either raises ConfigError or returns a config that builds a network."""
    doc = json.loads(json.dumps(FUZZ_DOC))
    path, key = slot
    target = doc
    for part in path:
        target = target[part]
    target[key] = value
    try:
        cfg = config.config_from_dict(doc)
    except ConfigError:
        return
    if cfg.head_out <= 4096:  # keep the head's weight matrix small
        build_network(cfg)


class TestBenchCommand:
    def test_stdout_csv(self, runner):
        result = runner.invoke(main, ["bench", "--reps", "1"])
        assert result.exit_code == 0
        assert result.stdout.startswith("geometry,")

    def test_out_file(self, runner, tmp_path):
        out = tmp_path / "bench.csv"
        result = runner.invoke(main, ["bench", "--reps", "1",
                                      "--out", str(out)])
        assert result.exit_code == 0
        assert out.exists()
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 1 + len(bench.SIZE_PRESETS["small"]) + \
            len(bench.boxnet_deconv_shapes())

    @pytest.mark.parametrize("option", ["--reps", "--batch"])
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_count_exits_two(self, runner, option, value):
        result = runner.invoke(main, ["bench", option, value])
        assert result.exit_code == 2
        assert option in result.output and "MISMATCH" not in result.output

    def test_batch_scales_macs_and_bytes(self, runner):
        def table(*args):
            result = runner.invoke(main, ["bench", "--reps", "1", *args])
            assert result.exit_code == 0, result.output
            return list(csv.DictReader(io.StringIO(result.stdout)))

        one, default, three = table("--batch", "1"), table(), table("--batch", "3")
        timings = ("packed_ms", "reference_ms", "pm1_gemm_ms")
        strip = [{k: v for k, v in r.items() if k not in timings} for r in one]
        assert strip == [{k: v for k, v in r.items() if k not in timings} for r in default]
        for r1, r3 in zip(one, three):
            assert r3["checksum"] != "MISMATCH"
            for key in ("total_macs", "dense_bytes"):
                assert int(r3[key]) == 3 * int(r1[key])


    @pytest.mark.parametrize("threads", [None, "4", "1"])
    def test_warns_unless_one_blas_thread(self, runner, threads):
        result = runner.invoke(main, ["bench", "--reps", "1"],
                               env={"OPENBLAS_NUM_THREADS": threads})
        assert result.exit_code == 0
        assert result.stdout.startswith("geometry,")
        assert len(result.stdout.strip().split("\n")) == \
            1 + len(bench.SIZE_PRESETS["small"]) + len(bench.boxnet_deconv_shapes())
        if threads == "1":
            assert result.stderr == ""
        else:
            assert "warning: OPENBLAS_NUM_THREADS" in result.stderr
            assert ("unset" if threads is None else repr(threads)) in result.stderr

    def test_json_record_schema(self, runner, tmp_path):
        path = tmp_path / "bench.json"
        result = runner.invoke(main, ["bench", "--sizes", "small", "--reps", "1",
                                      "--batch", "2", "--json", str(path)],
                               env={"OPENBLAS_NUM_THREADS": "1"})
        assert result.exit_code == 0, result.output
        assert result.stdout.startswith("geometry,")
        record = json.loads(path.read_text())
        assert set(record) == {"schema_version", "machine", "numpy", "git_sha",
                               "kernel", "end_to_end"}
        assert record["schema_version"] == bench.SCHEMA_VERSION
        assert record["machine"]["openblas_num_threads"] == "1"
        assert {"cpu_model", "nproc", "python"} <= set(record["machine"])
        assert record["numpy"] == np.__version__
        assert record["git_sha"] is None or len(record["git_sha"]) == 40
        kernel = record["kernel"]
        assert (kernel["sizes"], kernel["batch"], kernel["reps"]) == ("small", 2, 1)
        assert [r["geometry"] for r in kernel["rows"]] == \
            [r.geometry for r in bench.bench_conv(bench.SIZE_PRESETS["small"], reps=1)] + \
            [r.geometry for r in bench.bench_deconv(bench.boxnet_deconv_shapes(), reps=1)]
        for row in kernel["rows"]:
            assert set(row) == {f.name for f in dataclasses.fields(bench.BenchRow)}
            assert row["checksum"] != "MISMATCH"
        e2e = record["end_to_end"]
        assert (e2e["preset"], e2e["batch"], e2e["seed"]) == ("full-bidrb", 8, 7)
        assert (e2e["forwards"], e2e["train_steps"]) == (bench.E2E_FORWARDS, bench.E2E_STEPS)
        assert e2e["forward_ms_p50"] > 0
        assert np.isfinite(e2e["train_step_ms"])
        assert e2e["train_step_peak_mb"] > 0
        assert e2e["wide_forward_ms_p50"] > 0
        assert e2e["wide_forward_peak_mb"] > 0

class TestTrainToyCommand:
    def test_short_run_writes_csv_and_checkpoint(self, runner, tmp_path):
        out = tmp_path / "trace.csv"
        result = runner.invoke(main, ["train-toy", "--config", str(TINY),
                                      "--steps", "3", "--out", str(out)])
        assert result.exit_code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "step,loss_total,loss_param,loss_joint,loss_box"
        assert len(lines) == 4
        ckpt = tmp_path / "trace.ckpt"
        assert ckpt.exists()
        arrays = config.load_checkpoint(str(ckpt))
        assert any(name.startswith("block0") for name in arrays)

    def test_golden_byte_for_byte(self, runner, tmp_path):
        """20 steps at seed 7 on the full-bidrb preset write TRAIN_GOLDEN and
        the checkpoint CKPT_GOLDEN exactly."""
        out = tmp_path / "trace.csv"
        result = runner.invoke(main, ["train-toy", "--steps", "20", "--seed", "7",
                                      "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert out.read_bytes() == TRAIN_GOLDEN.read_bytes()
        assert (tmp_path / "trace.ckpt").read_bytes() == CKPT_GOLDEN.read_bytes()

    def test_stdout_trace(self, runner):
        result = runner.invoke(main, ["train-toy", "--config", str(TINY),
                                      "--steps", "2"])
        assert result.exit_code == 0
        assert result.output.startswith("step,loss_total")
        assert "final loss:" in result.output

    def test_negative_steps_exits_two(self, runner):
        result = runner.invoke(main, ["train-toy", "--config", str(TINY), "--steps", "-3"])
        assert result.exit_code == 2
        assert "--steps" in result.output and "step,loss_total" not in result.output

    @pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "-1"])
    def test_bad_lr_exits_two_before_training(self, runner, monkeypatch, lr):
        monkeypatch.setattr(train, "train_toy", lambda *a, **k: pytest.fail("trained"))
        result = runner.invoke(main, ["train-toy", "--config", str(TINY), "--lr", lr])
        assert result.exit_code == 2
        assert "--lr" in result.output

    def test_training_error_exits_one_with_one_line(self, runner, monkeypatch):
        def diverge(*args, **kwargs):
            raise TrainingError(3, "loss diverged to nan")

        monkeypatch.setattr(train, "train_toy", diverge)
        result = runner.invoke(main, ["train-toy", "--config", str(TINY), "--steps", "5"])
        assert result.exit_code == 1 and isinstance(result.exception, SystemExit)
        assert result.stdout == ""
        assert result.stderr == "training error: step 3: loss diverged to nan\n"

    def test_zero_steps_runs_nothing(self, runner):
        result = runner.invoke(main, ["train-toy", "--config", str(TINY), "--steps", "0"])
        assert result.exit_code == 0
        assert result.output == "step,loss_total,loss_param,loss_joint,loss_box\n"

    @pytest.mark.parametrize("shape", [[4, 16, 16], [3, 16, 16]])
    def test_input_shape_other_than_task_exits_two(self, runner, tmp_path, shape):
        doc = json.loads(TINY.read_text())
        doc["input_shape"] = shape
        doc["blocks"] = [{"kind": "base_lcr", "in_channels": shape[0],
                          "out_channels": shape[0]}]
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(doc))
        result = runner.invoke(main, ["train-toy", "--config", str(path), "--steps", "1"])
        assert result.exit_code == 2
        assert "config error" in result.output and "(3, 32, 32)" in result.output
        assert "step,loss_total" not in result.output


OUTPUT_OPTIONS = [["train-toy", "--config", str(TINY), "--steps", "1", "--out"],
                  ["bench", "--reps", "1", "--out"],
                  ["bench", "--reps", "1", "--json"],
                  ["init-config", "full-bidrb", "--out"]]
OUTPUT_IDS = ["train-toy-out", "bench-out", "bench-json", "init-config-out"]


@pytest.mark.parametrize("args", OUTPUT_OPTIONS, ids=OUTPUT_IDS)
def test_output_in_missing_directory_exits_two(runner, tmp_path, args):
    """An output path in a missing directory is a usage error, found before
    any training or benchmarking starts: exit 2, one line, no traceback."""
    path = tmp_path / "missing" / "out.csv"
    result = runner.invoke(main, [*args, str(path)], env={"OPENBLAS_NUM_THREADS": "1"})
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == f"usage error: cannot write {path}: no writable directory\n"


@pytest.mark.parametrize("args", OUTPUT_OPTIONS, ids=OUTPUT_IDS)
def test_output_path_that_is_a_directory_exits_two(runner, tmp_path, args):
    result = runner.invoke(main, [*args, str(tmp_path)], env={"OPENBLAS_NUM_THREADS": "1"})
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "is a directory" in result.output and "geometry," not in result.output
    assert "wrote" not in result.output


@pytest.mark.parametrize("args", [["train-toy", "--config", str(TINY), "--steps", "1"],
                                  ["verify", "--cases", "1"], ["gradcheck"],
                                  ["bench", "--reps", "1"]],
                         ids=["train-toy", "verify", "gradcheck", "bench"])
def test_negative_seed_exits_two(runner, args):
    """A negative seed is a usage error found while the arguments are parsed,
    not a traceback from the random generator."""
    result = runner.invoke(main, [*args, "--seed", "-1"], env={"OPENBLAS_NUM_THREADS": "1"})
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert "--seed" in result.stderr and "-1" in result.stderr
    assert result.stdout == ""


class TestInitConfig:
    @pytest.mark.parametrize("kind", ["base-lcr", "full-bidrb", "table4a-step-1",
                                      "table4a-step-5"])
    def test_presets_round_trip(self, runner, tmp_path, kind):
        out = tmp_path / f"{kind}.json"
        result = runner.invoke(main, ["init-config", kind, "--out", str(out)])
        assert result.exit_code == 0
        cfg = config.load_config(str(out))
        cfg.validate()

    def test_unknown_preset_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["init-config", "resnet50",
                                      "--out", str(tmp_path / "x.json")])
        assert result.exit_code == 2

    def test_pipeline_init_then_stats(self, runner, tmp_path):
        out = tmp_path / "cfg.json"
        assert runner.invoke(main, ["init-config", "full-bidrb",
                                    "--out", str(out)]).exit_code == 0
        result = runner.invoke(main, ["stats", "--config", str(out)])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["params_bin_latent"] > 0


class TestCheckpointRoundTrip:
    def test_save_load_restores_state(self, tmp_path):
        cfg = config.load_config(str(TINY))
        net = build_network(cfg)
        path = tmp_path / "w.ckpt"
        config.save_checkpoint(str(path), config.network_state(net))
        # perturb, restore, compare
        other = build_network(cfg)
        for p in other.named_parameters().values():
            p.data += 1.0
        config.load_network_state(other, config.load_checkpoint(str(path)))
        for name, p in net.named_parameters().items():
            np.testing.assert_allclose(other.named_parameters()[name].data,
                                       p.data, atol=1e-7)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        from bidrn.errors import ConfigError
        with pytest.raises(ConfigError):
            config.load_checkpoint(str(path))

    def test_unknown_entry_rejected(self, tmp_path):
        cfg = config.load_config(str(TINY))
        net = build_network(cfg)
        path = tmp_path / "w.ckpt"
        config.save_checkpoint(str(path), {"mystery": np.zeros(3)})
        from bidrn.errors import ConfigError
        with pytest.raises(ConfigError):
            config.load_network_state(net, config.load_checkpoint(str(path)))

    @pytest.mark.parametrize("shape", [(1,), (4,)])
    def test_misshapen_buffer_rejected(self, shape):
        from bidrn.errors import ConfigError
        net = build_network(config.preset_config("full-bidrb"))
        state = {name: arr.copy() for name, arr in config.network_state(net).items()}
        name = "block0.m0.a.bn.running_mean"
        state[name] = np.full(shape, 5.0, dtype=np.float32)
        with pytest.raises(ConfigError, match=name):
            config.load_network_state(net, state)
        np.testing.assert_array_equal(net.named_buffers()[name], np.zeros(3))

    @pytest.mark.parametrize("drop", ["all", "one-parameter", "one-buffer"])
    def test_missing_entries_rejected(self, drop):
        from bidrn.errors import ConfigError
        net = build_network(config.preset_config("full-bidrb"))
        state = {name: arr + 1.0 for name, arr in config.network_state(net).items()}
        if drop == "all":
            state = {}
        else:
            del state["head.bias" if drop == "one-parameter" else "block0.m0.a.bn.running_var"]
        with pytest.raises(ConfigError, match="missing"):
            config.load_network_state(net, state)
        np.testing.assert_array_equal(net.named_parameters()["head.bias"].data,
                                      np.zeros_like(net.named_parameters()["head.bias"].data))

    @pytest.mark.parametrize("cut", ["mid-data", "mid-name-length", "mid-name",
                                     "mid-shape", "trailing", "bad-name"])
    def test_malformed_checkpoint_rejected(self, tmp_path, cut):
        from bidrn.errors import ConfigError
        path = tmp_path / "w.ckpt"
        config.save_checkpoint(str(path), {"block0.w": np.ones((2, 3))})
        data = path.read_bytes()
        # 8 magic + 4 name length + 8 name + 4 rank + 8 extents + 24 data
        assert len(data) == 56
        data = {"mid-data": data[:-3], "mid-name-length": data[:10],
                "mid-name": data[:15], "mid-shape": data[:26],
                "trailing": data + b"\x00\x00",
                "bad-name": data[:12] + b"\xff" + data[13:]}[cut]
        path.write_bytes(data)
        with pytest.raises(ConfigError):
            config.load_checkpoint(str(path))

    def test_duplicate_entry_rejected(self, tmp_path):
        # the later record must not silently replace the earlier one
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        config.save_checkpoint(str(first), {"w": np.array([1.0, 2.0])})
        config.save_checkpoint(str(second), {"w": np.array([3.0, 4.0])})
        path = tmp_path / "w.ckpt"
        path.write_bytes(first.read_bytes() + second.read_bytes()[8:])
        with pytest.raises(ConfigError, match="'w' appears twice"):
            config.load_checkpoint(str(path))

    def test_extents_too_long_to_print_rejected(self, tmp_path):
        # 1500 extents of 2**32 - 1 multiply to a size of over 14,000 digits,
        # which Python refuses to format as a string
        path = tmp_path / "w.ckpt"
        path.write_bytes(config.CHECKPOINT_MAGIC + struct.pack("<I", 1) + b"w"
                         + struct.pack("<I", 1500) + b"\xff" * 6000)
        with pytest.raises(ConfigError, match="byte 6017 needs more than the 0 bytes left"):
            config.load_checkpoint(str(path))

    @pytest.mark.parametrize("target", ["missing", "directory"])
    def test_unreadable_path_rejected(self, tmp_path, target):
        path = tmp_path / "nope.ckpt" if target == "missing" else tmp_path
        with pytest.raises(ConfigError, match="cannot read checkpoint"):
            config.load_checkpoint(str(path))


NAMES = REPO / "configs" / "full-bidrb.names.json"


def test_full_bidrb_names_golden():
    """Checkpoint entry names of the full-bidrb preset, in order."""
    net = build_network(config.preset_config("full-bidrb"))
    golden = json.loads(NAMES.read_text())
    assert list(net.named_parameters()) == golden["parameters"]
    assert list(net.named_buffers()) == golden["buffers"]


BIN1X1_DS4 = REPO / "configs" / "bin1x1-ds4.json"


def test_bin1x1_down_sample4_names_golden():
    """Checkpoint entry names, in order, of a config with the binarized 1x1
    block shortcut and a 4-branch down-sample, which full-bidrb lacks."""
    net = build_network(config.load_config(str(BIN1X1_DS4)))
    golden = json.loads(BIN1X1_DS4.with_suffix(".names.json").read_text())
    assert list(net.named_parameters()) == golden["parameters"]
    assert list(net.named_buffers()) == golden["buffers"]


def test_bin1x1_down_sample4_round_trips_through_config_to_dict():
    """config_to_dict writes ``branches`` only for a down-sample fan-out other
    than 2; the 4-branch config comes back as the file."""
    doc = json.loads(BIN1X1_DS4.read_text())
    assert config.config_to_dict(config.config_from_dict(doc)) == doc
