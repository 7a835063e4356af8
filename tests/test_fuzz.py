"""Seeded mutation fuzzing of the golden configs and checkpoint.

Every mutant must load, or fail with ConfigError or DimensionError; any other
exception fails the test with the seed that reproduces it. Each mutant is
drawn by ``np.random.default_rng(seed)`` for seed 0, 1, 2, ..., so a failure
is rerun with ``mutate_config(seed, name)`` or ``mutate_checkpoint(seed)``.
The loaders never allocate more than their input's size, so no mutant is
expensive to reject.
"""

import json
import pathlib
import re
import struct

import numpy as np
import pytest

from bidrn import config
from bidrn.errors import ConfigError, DimensionError
from bidrn.layers import build_network

REPO = pathlib.Path(__file__).resolve().parent.parent
CONFIGS = {p.name: p.read_text() for p in sorted((REPO / "configs").glob("*.json"))
           if "blocks" in json.loads(p.read_text())}  # the network configs, not the goldens
CKPT = (REPO / "configs" / "full-bidrb.train7.ckpt").read_bytes()
CONFIG_MUTANTS = 750  # per config
CKPT_MUTANTS = 1500

# Values of other types, out of range or not integral, that a type swap puts in.
ODD_VALUES = [None, True, False, "", "x", "hardtanh", "none", 0, -1, 1, 2, 3, 2 ** 63,
              -2 ** 70, 10 ** 100, 10 ** 5000, 0.5, 2.5, 1e300, float("inf"), float("nan"), -0.0,
              [], {}, [1, 2], {"k": 1}]


def _depth(rng) -> int:
    """A nesting depth from 1 to 8192, log-uniform."""
    return int(2 ** rng.uniform(0, 13))


def _flip_bytes(rng, data: bytes) -> bytes:
    b = bytearray(data)
    for _ in range(int(rng.integers(1, 5))):
        b[int(rng.integers(len(b)))] = int(rng.integers(256))
    return bytes(b)


def _paths(doc, path=()):
    """The path of every value below the document root."""
    children = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def mutate_config(seed: int, name: str):
    """(kind, mutant): bytes to be read by load_config, or a document for
    config_from_dict."""
    rng = np.random.default_rng(seed)
    text = CONFIGS[name]
    kind = ["flip", "truncate", "text-nest", "delete", "swap", "nest"][int(rng.integers(6))]
    if kind == "flip":
        return kind, _flip_bytes(rng, text.encode())
    if kind == "truncate":
        return kind, text.encode()[:int(rng.integers(len(text)))]
    if kind == "text-nest":
        numbers = [m.span() for m in re.finditer(r"-?\d+", text)]
        s, e = numbers[int(rng.integers(len(numbers)))]
        d = _depth(rng)
        return kind, (text[:s] + "[" * d + text[s:e] + "]" * d + text[e:]).encode()
    doc = json.loads(text)
    paths = list(_paths(doc))
    path = paths[int(rng.integers(len(paths)))]
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if kind == "delete":
        del parent[path[-1]]
    elif kind == "swap":
        parent[path[-1]] = ODD_VALUES[int(rng.integers(len(ODD_VALUES)))]
    else:
        value = parent[path[-1]]
        for _ in range(_depth(rng)):
            value = [value] if rng.integers(2) else {"k": value}
        parent[path[-1]] = value
    return kind, doc


def _records(buf: bytes):
    """(start, end) of each record of a well-formed checkpoint, and the byte
    offsets of the u32 header fields: name lengths, ranks and extents."""
    pos, spans, fields = 8, [], []
    while pos < len(buf):
        start = pos
        fields.append(pos)
        (name_len,) = struct.unpack_from("<I", buf, pos)
        pos += 4 + name_len
        fields.append(pos)
        (rank,) = struct.unpack_from("<I", buf, pos)
        fields.extend(range(pos + 4, pos + 4 + 4 * rank, 4))
        shape = struct.unpack_from(f"<{rank}I", buf, pos + 4)
        pos += 4 + 4 * rank + 4 * int(np.prod(shape))
        spans.append((start, pos))
    return spans, fields


RECORDS, FIELDS = _records(CKPT)


def mutate_checkpoint(seed: int):
    """(kind, mutant bytes) of the golden checkpoint."""
    rng = np.random.default_rng(seed)
    kind = ["flip", "truncate", "word", "field", "shape", "delete",
            "duplicate"][int(rng.integers(7))]
    b = bytearray(CKPT)
    if kind == "flip":
        return kind, _flip_bytes(rng, CKPT)
    if kind == "truncate":
        return kind, CKPT[:int(rng.integers(len(CKPT)))]
    if kind == "word":  # any aligned or unaligned 4 bytes
        i = int(rng.integers(len(b) - 3))
        b[i:i + 4] = struct.pack("<I", int(rng.integers(2 ** 32)))
        return kind, bytes(b)
    if kind == "field":  # one or two header fields, log-uniform values
        for _ in range(int(rng.integers(1, 3))):
            i = FIELDS[int(rng.integers(len(FIELDS)))]
            b[i:i + 4] = struct.pack("<I", int(rng.integers(2 ** int(rng.integers(0, 33)))))
        return kind, bytes(b)
    start, end = RECORDS[int(rng.integers(len(RECORDS)))]
    if kind == "shape":  # a new rank and extents in place of a record's
        (name_len,) = struct.unpack_from("<I", CKPT, start)
        at = start + 4 + name_len
        (rank,) = struct.unpack_from("<I", CKPT, at)
        new_rank = int(2 ** rng.uniform(0, 8))
        extents = rng.choice([0, 1, 1, 1, 2, 3, 2 ** 32 - 1], size=new_rank)
        header = struct.pack(f"<I{new_rank}I", new_rank, *(int(e) for e in extents))
        return kind, CKPT[:at] + header + CKPT[at + 4 + 4 * rank:]
    if kind == "delete":
        return kind, CKPT[:start] + CKPT[end:]
    at = RECORDS[int(rng.integers(len(RECORDS)))][0]
    return kind, CKPT[:at] + CKPT[start:end] + CKPT[at:]


def _failures(mutate, load, seeds):
    """'seed N (kind): exception' for every seed whose mutant raised
    anything but ConfigError or DimensionError."""
    failures = []
    for seed in seeds:
        kind, mutant = mutate(seed)
        try:
            load(mutant)
        except (ConfigError, DimensionError):
            pass
        except Exception as e:  # any other exception is the finding
            failures.append(f"seed {seed} ({kind}): {type(e).__name__}: {str(e)[:120]}")
    return failures


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_config_mutants_load_or_raise_typed(name, tmp_path):
    path = tmp_path / "mutant.json"

    def load(mutant):
        if isinstance(mutant, bytes):
            path.write_bytes(mutant)
            config.load_config(str(path))
        else:
            config.config_from_dict(mutant)

    failures = _failures(lambda seed: mutate_config(seed, name), load, range(CONFIG_MUTANTS))
    assert failures == [], "\n".join(failures)


def test_checkpoint_mutants_load_or_raise_typed(tmp_path):
    net = build_network(config.preset_config("full-bidrb"))
    path = tmp_path / "mutant.ckpt"

    def load(mutant):
        path.write_bytes(mutant)
        config.load_network_state(net, config.load_checkpoint(str(path)))

    failures = _failures(mutate_checkpoint, load, range(CKPT_MUTANTS))
    assert failures == [], "\n".join(failures)


def test_mutants_are_reproducible_and_cover_every_kind():
    assert all(mutate_checkpoint(s) == mutate_checkpoint(s) for s in range(20))
    text_mutants = [s for s in range(20) if isinstance(mutate_config(s, "tiny.json")[1], bytes)]
    assert text_mutants
    assert all(mutate_config(s, "tiny.json") == mutate_config(s, "tiny.json")
               for s in text_mutants)
    assert {mutate_checkpoint(s)[0] for s in range(200)} == {
        "flip", "truncate", "word", "field", "shape", "delete", "duplicate"}
    assert {mutate_config(s, "tiny.json")[0] for s in range(200)} == {
        "flip", "truncate", "text-nest", "delete", "swap", "nest"}
