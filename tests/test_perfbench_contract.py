"""The benchmark in perfbench/ calls the package by name and reads named spans.

For each workload this builds it, runs two traced iterations and checks,
through ``run.per_layer``, that every per-layer metric the benchmark reports
was recorded and that the gate on the kernel's MAC count holds, and then
that the workload's own checks pass. It reads perfbench/ and writes nothing
there.
"""

import importlib.util
import pathlib
import sys

import pytest

from bidrn import bench

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
SEED = 11
ITERATIONS = 2


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
def test_workload_records_every_span_and_passes_checks(name, monkeypatch):
    monkeypatch.setitem(sys.modules, "spans", spans)  # run.per_layer imports it by name
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
    # One step and one forward per iteration, each timed at 1 ms: per_layer
    # reads the counts of its phases, not their times.
    forwards = [1.0] * ITERATIONS
    phase = run.Phase(forwards, forwards, forwards, forwards, ITERATIONS, 1.0, None)
    recorded, gates = run.per_layer(wl, tracer, phase, phase, workloads.BATCH)
    missing = [m for m in run.PER_LAYER if m not in recorded]
    assert not missing, f"{name}: spans never recorded: {missing}"
    assert len(gates) == (wl.model_stats() is not None)
    failed_gates = [gate for gate, ok in gates if not ok]
    assert not failed_gates, f"{name}: failed gates: {failed_gates}"
    failed = [check for check, ok in wl.checks() if not ok]
    assert not failed, f"{name}: failed checks: {failed[:5]}"


@pytest.mark.parametrize("seed", [bench.E2E_SEED, SEED])
def test_bench_wide_forward_runs_infer_wide(seed):
    """``bidrn bench``'s wide forward is the network and input shape of the
    ``infer-wide`` workload, at batch 8."""
    assert bench.wide_config(seed) == workloads.infer_wide_config(seed)
    assert bench.E2E_BATCH == workloads.BATCH
    (x, *_) = workloads.InferWide.make_inputs(seed)
    assert x.shape == (bench.E2E_BATCH, *bench.wide_config(seed).input_shape)
