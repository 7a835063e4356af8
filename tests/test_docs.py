"""README references to the package's code must name code that exists."""

import importlib
import pathlib
import re

import bidrn

REPO = pathlib.Path(__file__).resolve().parent.parent
MODULES = {p.stem for p in pathlib.Path(bidrn.__file__).parent.glob("*.py")} - {"__init__"}
# `module.name`, `module.Class.attr` or `module.name(args)`, one code span each.
REFERENCE = re.compile(r"`(\w+)((?:\.\w+)+)(?:\([^`]*\))?`")


def readme_references():
    """Every distinct code span of README.md that names an attribute of a
    bidrn module; file names such as `ops.py` are not references."""
    refs = set()
    for module, path in REFERENCE.findall((REPO / "README.md").read_text()):
        if module in MODULES and path != ".py":
            refs.add(module + path)
    return sorted(refs)


def resolves(ref: str) -> bool:
    module, *names = ref.split(".")
    obj = importlib.import_module(f"bidrn.{module}")
    for name in names:
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_readme_references_resolve():
    refs = readme_references()
    assert len(refs) >= 20  # the pattern still finds the README's references
    stale = [ref for ref in refs if not resolves(ref)]
    assert stale == []


def test_stale_reference_is_reported():
    assert not resolves("binary.no_such_kernel")
    assert not resolves("tensor.BatchNormParams.no_such_field")
    assert resolves("tensor.BatchNormParams.create")
