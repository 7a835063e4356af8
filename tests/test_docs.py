"""README references and docstring cross-references to the package's code
must name code that exists."""

import ast
import importlib
import pathlib
import re

import bidrn

REPO = pathlib.Path(__file__).resolve().parent.parent
MODULES = {p.stem for p in pathlib.Path(bidrn.__file__).parent.glob("*.py")} - {"__init__"}
# `module.name`, `module.Class.attr` or `module.name(args)`, one code span each.
REFERENCE = re.compile(r"`(\w+)((?:\.\w+)+)(?:\([^`]*\))?`")
# :func:`name`, :class:`name` or :meth:`name` in a docstring.
ROLE = re.compile(r":(?:func|class|meth):`([\w.]+)`")


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


def docstring_references():
    """(module, reference) for every distinct :func:, :class: or :meth:
    reference in a docstring of a bidrn module, the ``bidrn.`` prefix
    dropped."""
    refs = set()
    for module in MODULES:
        tree = ast.parse((REPO / "src" / "bidrn" / f"{module}.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                for ref in ROLE.findall(ast.get_docstring(node) or ""):
                    refs.add((module, ref.removeprefix("bidrn.")))
    return sorted(refs)


def resolves_from(module: str, ref: str) -> bool:
    """A reference that starts with a sibling module's name resolves in that
    module; any other resolves in ``module`` itself."""
    return resolves(ref if ref.split(".")[0] in MODULES else f"{module}.{ref}")


def test_readme_references_resolve():
    refs = readme_references()
    assert len(refs) >= 20  # the pattern still finds the README's references
    stale = [ref for ref in refs if not resolves(ref)]
    assert stale == []


def test_stale_reference_is_reported():
    assert not resolves("binary.no_such_kernel")
    assert not resolves("tensor.BatchNormParams.no_such_field")
    assert resolves("tensor.BatchNormParams.create")


def test_docstring_references_resolve():
    refs = docstring_references()
    assert len(refs) >= 40  # the pattern still finds the docstrings' references
    stale = [(module, ref) for module, ref in refs if not resolves_from(module, ref)]
    assert stale == []


def test_stale_docstring_reference_is_reported():
    assert resolves_from("train", "step")
    assert resolves_from("bench", "train.step")
    assert not resolves_from("bench", "step")
    assert not resolves_from("train", "tensor.no_such_kernel")
