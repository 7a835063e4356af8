"""Config JSON serialization, presets, and the binary weight checkpoint."""

from __future__ import annotations

import json
import math
import reprlib
import struct
import sys

import numpy as np

from .errors import ConfigError
from .layers import BlockResidualMode, ModuleKind, ModuleSpec, NetworkConfig

CHECKPOINT_MAGIC = b"BIDRNW01"

_KINDS = {k.value for k in ModuleKind}
_BR_MODES = {m.value for m in BlockResidualMode}


def config_to_dict(cfg: NetworkConfig) -> dict:
    blocks = []
    for spec, br in cfg.blocks:
        entry = {
            "kind": spec.kind.value,
            "in_channels": spec.in_channels,
            "out_channels": spec.out_channels,
            "stride": spec.spatial_stride,
            "block_residual": br.value,
        }
        if spec.kind is ModuleKind.DOWN_SAMPLE and spec.branches != 2:
            entry["branches"] = spec.branches
        blocks.append(entry)
    return {
        "input_shape": list(cfg.input_shape),
        "preact": cfg.preact,
        "blocks": blocks,
        "seed": cfg.seed,
        "head": {"out_features": cfg.head_out},
    }


_TOP_KEYS = {"input_shape", "preact", "seed", "head", "blocks"}
_HEAD_KEYS = {"out_features"}
_BLOCK_KEYS = {"kind", "in_channels", "out_channels", "stride", "block_residual", "branches"}


def _fields(obj, allowed: set, where: str) -> dict:
    """obj as a JSON object whose keys are all in ``allowed``."""
    if not isinstance(obj, dict):
        # reprlib cuts a deeply nested value short, where repr would recurse
        raise ConfigError(f"{where}: expected an object, got {reprlib.repr(obj)}")
    unknown = sorted(set(obj) - allowed, key=str)
    if unknown:
        raise ConfigError(f"{where}: unknown key {unknown[0]!r}")
    return obj


def _int(value, where: str) -> int:
    """value as an int; bools, non-numbers, non-integral numbers and integers
    outside the signed 64-bit range raise ConfigError. The range keeps every
    later message able to print the value: Python refuses to format an int
    of more than 4300 digits."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        if -2 ** 63 <= value < 2 ** 63:
            return value
        raise ConfigError(f"{where}: integer of {value.bit_length()} bits does not fit in 64")
    raise ConfigError(f"{where}: expected an integer, got {reprlib.repr(value)}")


def config_from_dict(doc: dict) -> NetworkConfig:
    try:
        _fields(doc, _TOP_KEYS, "config")
        input_shape = tuple(_int(v, "input_shape") for v in doc["input_shape"])
        preact = doc.get("preact", "hardtanh")
        seed = _int(doc.get("seed", 0), "seed")
        head = _fields(doc.get("head", {}), _HEAD_KEYS, "head")
        head_out = _int(head.get("out_features", 14), "head.out_features")
        blocks = []
        for i, entry in enumerate(doc["blocks"]):
            where = f"blocks[{i}]"
            _fields(entry, _BLOCK_KEYS, where)
            kind = entry["kind"]
            if kind not in _KINDS:
                raise ConfigError(f"{where}.kind: unknown kind {kind!r}")
            br = entry.get("block_residual", "none")
            if br not in _BR_MODES:
                raise ConfigError(f"{where}.block_residual: unknown mode {br!r}")
            spec = ModuleSpec(
                kind=ModuleKind(kind),
                in_channels=_int(entry["in_channels"], f"{where}.in_channels"),
                out_channels=_int(entry["out_channels"], f"{where}.out_channels"),
                spatial_stride=_int(entry.get("stride", 1), f"{where}.stride"),
                branches=_int(entry.get("branches", 2), f"{where}.branches"),
            )
            blocks.append((spec, BlockResidualMode(br)))
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        if isinstance(e, ConfigError):
            raise
        raise ConfigError(f"malformed config: {e}") from None
    cfg = NetworkConfig(input_shape=input_shape, blocks=blocks, preact=preact,
                        seed=seed, head_out=head_out)
    cfg.validate()
    return cfg


def load_config(path: str) -> NetworkConfig:
    """The validated config in the UTF-8 JSON file ``path``; an unreadable,
    undecodable, malformed or too deeply nested file, or one holding an
    integer too long to convert, raises ConfigError."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: invalid JSON: {e.msg}") from None
    except UnicodeDecodeError as e:
        raise ConfigError(f"{path}: not UTF-8 text: byte {e.start}: {e.reason}") from None
    except ValueError:  # the only other ValueError json raises: an over-long integer
        raise ConfigError(f"{path}: integer longer than {sys.get_int_max_str_digits()} "
                          f"digits") from None
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None
    return config_from_dict(doc)


def save_config(cfg: NetworkConfig, path: str):
    with open(path, "w") as f:
        json.dump(config_to_dict(cfg), f, indent=2)
        f.write("\n")


def _block(kind, ci, co, stride=1, br="fp1x1", branches=2):
    return {"kind": kind, "in_channels": ci, "out_channels": co, "stride": stride,
            "block_residual": br, **({"branches": branches} if branches != 2 else {})}


def preset_config(name: str) -> NetworkConfig:
    """Named starter configs; table4a-step-N mirrors the cumulative module
    progression (base LCR, +down scale, +fusion up, +fusion down, +down sample)."""
    if name == "base-lcr":
        doc = {
            "input_shape": [3, 32, 32],
            "preact": "hardtanh",
            "seed": 0,
            "head": {"out_features": 14},
            "blocks": [_block("fusion_up", 3, 6, br="none")] +
                      [_block("base_lcr", 6, 6, br="none") for _ in range(3)],
        }
    elif name == "full-bidrb":
        doc = {
            "input_shape": [3, 32, 32],
            "preact": "hardtanh",
            "seed": 0,
            "head": {"out_features": 14},
            "blocks": [
                _block("fusion_up", 3, 6),
                _block("down_scale", 6, 6, stride=2),
                _block("fusion_down", 6, 3),
                _block("down_sample", 3, 6, stride=2),
                _block("base_lcr", 6, 6, br="none"),
            ],
        }
    elif name.startswith("table4a-step-"):
        try:
            step = int(name.rsplit("-", 1)[1])
        except ValueError:
            raise ConfigError(f"unknown preset {name!r}") from None
        if not 1 <= step <= 5:
            raise ConfigError("table4a steps run 1 through 5")
        # Fixed five-slot scaffold; later steps swap plain LCR slots for the
        # dimension-matching variants in order.
        slots = [
            _block("fusion_up", 3, 6, br="none"),
            _block("base_lcr", 6, 6, br="none"),
            _block("base_lcr", 6, 6, br="none"),
            _block("base_lcr", 6, 6, br="none"),
            _block("base_lcr", 6, 6, br="none"),
        ]
        if step >= 2:
            slots[1] = _block("down_scale", 6, 6, stride=2, br="none")
        if step >= 3:
            slots[2] = _block("fusion_up", 6, 12, br="none")
            slots[3] = _block("base_lcr", 12, 12, br="none")
            slots[4] = _block("base_lcr", 12, 12, br="none")
        if step >= 4:
            slots[3] = _block("fusion_down", 12, 6, br="none")
            slots[4] = _block("base_lcr", 6, 6, br="none")
        if step >= 5:
            slots[4] = _block("down_sample", 6, 12, stride=2, br="none")
        doc = {
            "input_shape": [3, 32, 32],
            "preact": "hardtanh",
            "seed": 0,
            "head": {"out_features": 14},
            "blocks": slots,
        }
    else:
        raise ConfigError(
            f"unknown preset {name!r}; expected base-lcr, full-bidrb, or table4a-step-N"
        )
    return config_from_dict(doc)


def save_checkpoint(path: str, arrays: dict):
    """Little-endian weight file: 8-byte magic, then per-array records of
    (u32 name length, name bytes, u32 rank, u32 extents..., float32 data)."""
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        for name, arr in arrays.items():
            arr = np.asarray(arr, dtype="<f4")
            name_b = name.encode("utf-8")
            f.write(struct.pack("<I", len(name_b)))
            f.write(name_b)
            f.write(struct.pack("<I", arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(arr.tobytes())


def load_checkpoint(path: str) -> dict:
    """Reads a save_checkpoint file. A record cut short, which includes stray
    bytes after the last full record, a name that is not UTF-8 or a name that
    appears twice raises ConfigError, as does a path that cannot be read."""
    try:
        with open(path, "rb") as f:
            buf = f.read()
    except OSError as e:
        raise ConfigError(f"cannot read checkpoint {path}: {e}") from None
    magic = buf[:8]
    if magic != CHECKPOINT_MAGIC:
        raise ConfigError(f"{path}: bad checkpoint magic {magic!r}")
    pos = 8

    def take(size: int) -> bytes:
        # size comes from the file's extents and may have thousands of digits,
        # too many to format, so the message names only the bytes left.
        nonlocal pos
        if size > len(buf) - pos:
            raise ConfigError(f"{path}: checkpoint truncated: the record at byte {pos} "
                              f"needs more than the {len(buf) - pos} bytes left")
        pos += size
        return buf[pos - size:pos]

    arrays = {}
    while pos < len(buf):
        (name_len,) = struct.unpack("<I", take(4))
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise ConfigError(f"{path}: entry name at byte {pos - name_len} "
                              "is not UTF-8") from None
        if name in arrays:
            raise ConfigError(f"{path}: checkpoint entry {name!r} appears twice")
        (rank,) = struct.unpack("<I", take(4))
        shape = struct.unpack(f"<{rank}I", take(4 * rank))
        data = take(4 * math.prod(shape))
        try:
            arrays[name] = np.frombuffer(data, dtype="<f4").reshape(shape).copy()
        except ValueError as e:  # more axes, or extents, than numpy can hold
            raise ConfigError(f"{path}: checkpoint entry {name!r} has a shape "
                              f"numpy cannot hold: {e}") from None
    return arrays


def network_state(net) -> dict:
    state = net.state()  # the parameters, then the buffers (plain arrays)
    params = {name: v.data for name, v in state.items() if not isinstance(v, np.ndarray)}
    return params | {name: v for name, v in state.items() if name not in params}


def load_network_state(net, arrays: dict):
    """Copies a full checkpoint into the network. An unknown, missing or
    misshapen entry raises ConfigError before anything is written."""
    state = network_state(net)
    for name, arr in arrays.items():
        if name not in state:
            raise ConfigError(f"checkpoint has unknown entry {name!r}")
        if state[name].shape != np.shape(arr):
            raise ConfigError(
                f"checkpoint {name}: shape {np.shape(arr)} does not match "
                f"{state[name].shape}"
            )
    missing = [name for name in state if name not in arrays]
    if missing:
        raise ConfigError(f"checkpoint is missing {len(missing)} entries, "
                          f"first {missing[0]!r}")
    for name, arr in arrays.items():
        state[name][...] = arr
