"""The benchmark in perfbench/ calls the package by name and reads named spans.

For each workload this builds it, runs two traced iterations and checks that
every per-layer span the benchmark reports was recorded and that the
workload's own checks pass. It reads perfbench/ and writes nothing there.
"""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SEED = 11
ITERATIONS = 2
# Computed by run.py from other metrics or from an untraced phase.
DERIVED = ("binary.xnor_popcount_matmul.gmac_s", "trace.overhead.step",
           "trace.overhead.forward")


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    mod = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_dont_write = sys.dont_write_bytecode
sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
try:
    run, spans, workloads = _load("run"), _load("spans"), _load("workloads")
finally:
    sys.dont_write_bytecode = _dont_write


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_records_every_span_and_passes_checks(name):
    cls = workloads.WORKLOADS[name]
    wl = cls(SEED, cls.make_inputs(SEED))
    tracer = spans.Tracer()
    tracer.install(getattr(wl, "network", None))
    try:
        for _ in range(ITERATIONS):
            if wl.trains:
                wl.step()
            wl.forward()
    finally:
        tracer.remove()
    recorded = spans.summarize(tracer, ITERATIONS)
    missing = [m for m in run.PER_LAYER if m not in DERIVED and m not in recorded]
    assert not missing, f"{name}: spans never recorded: {missing}"
    failed = [check for check, ok in wl.checks() if not ok]
    assert not failed, f"{name}: failed checks: {failed[:5]}"

