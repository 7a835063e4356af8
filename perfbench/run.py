"""bidrn benchmark: closed-loop workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train-full-bidrb --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` next to this directory; the run fails
(exit 2, no result) when it is missing. With ``--trace 0`` the timed phase
runs untraced and the end-to-end metrics are reported. With ``--trace 1``
half of the time runs untraced and half with every public function of the
package wrapped in spans, and the per-layer metrics and the tracing overhead
are reported. The last line of standard output is the JSON result; a fuller
record, with the machine, goes to ``perfbench/out/``. README.md next to this
file documents the workloads and every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Single-threaded BLAS: the machine is shared and the kit's reference timings
# are single-threaded. Set before numpy loads OpenBLAS.
BLAS_THREADS = 1
# glibc malloc thresholds, fixed for the whole run (see fix_malloc).
MMAP_THRESHOLD = 32 << 20  # glibc's largest; bigger arrays are still mmapped
TRIM_THRESHOLD = 512 << 20

SETUPS = 11            # import + build repetitions; setup_s is their median
WARMUP_ITERATIONS = 3  # on the first, discarded instance
MIN_SAMPLES = 100      # per timing, so p90 has ten samples beyond it
EVAL_EVERY = 2         # training workloads: one held-out forward per 2 steps
LOSS_WINDOW = 400      # loss_ratio compares steps 0-19 with steps 380-399
RATIO_SPAN = 20

END_TO_END = ["step_ms_p50", "step_ms_p90", "forward_ms_p50", "forward_ms_p90",
              "throughput_img_s", "setup_s", "peak_rss_mb"]
# Per-layer metrics that every workload reports with a value other than 0.
PER_LAYER = [
    "binary.xnor_popcount_matmul.ms", "binary.xnor_popcount_matmul.macs",
    "binary.xnor_popcount_matmul.gmac_s",
    "binary.pack_signs.ms", "binary.pack_signs.bytes",
    "binary.binary_conv2d_packed.ms", "binary.binary_conv2d_packed.calls",
    "binary.sign_forward.ms",
    "tensor.im2col.ms", "tensor.im2col.bytes",
    "ops.binary_conv2d.fwd_ms", "ops.hardtanh.fwd_ms",
    "autograd.tape.nodes",
    "trace.overhead.step", "trace.overhead.forward",
]


@dataclass
class Phase:
    """One timed phase. Times are in reference ms (see calibration.py)."""

    steps: list
    forwards: list
    wall_steps: list   # the same timings in wall-clock ms
    wall_forwards: list
    iterations: int
    scale: float       # median calibration factor of the phase
    error: Exception | None


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure(wl, seconds, tracer=None) -> Phase:
    """Closed loop: the next iteration starts when the previous one ends.

    Runs for ``seconds`` and until every timing has ``MIN_SAMPLES`` samples
    and a training workload has made ``LOSS_WINDOW`` steps. A training
    workload runs a held-out forward after every ``EVAL_EVERY``-th step, and
    its loop ends on such an iteration, so the last held-out forward reads
    the weights of the last step. The calibration kernel runs after every
    iteration, and each timing is scaled by the factor of its iteration. A
    ``TrainingError`` ends the loop.
    """
    from bidrn.errors import TrainingError
    from calibration import Calibration

    cal = Calibration()
    steps, forwards = [], []  # (iteration, raw ms)
    error = None
    clock = time.perf_counter
    t_start = clock()
    i = 0
    while True:
        enough = len(forwards) >= MIN_SAMPLES and (
            not wl.trains or len(steps) >= max(MIN_SAMPLES, LOSS_WINDOW))
        if enough and i % EVAL_EVERY == 0 and clock() - t_start >= seconds:
            break
        if tracer is not None:
            tracer.current_iteration = i
        try:
            if wl.trains:
                t0 = clock()
                wl.step()
                steps.append((i, (clock() - t0) * 1e3))
            if not wl.trains or i % EVAL_EVERY == EVAL_EVERY - 1:
                t0 = clock()
                wl.forward()
                forwards.append((i, (clock() - t0) * 1e3))
        except TrainingError as e:
            error = e
            break
        cal.sample()
        i += 1
    factors = cal.factors()
    scale = float(statistics.median(factors))
    wall_steps = [ms for _, ms in steps]
    wall_forwards = [ms for _, ms in forwards]
    steps = [ms * factors[it] for it, ms in steps]
    forwards = [ms * factors[it] for it, ms in forwards]
    if not wl.trains:
        steps, wall_steps = forwards, wall_forwards
    return Phase(steps, forwards, wall_steps, wall_forwards, i, scale, error)


def set_up(name, seed):
    """Generates the workload's inputs once, then imports the package and
    builds the workload on them ``SETUPS`` times, each from a fresh import
    and each after one run of the calibration kernel. The first instance is
    warmed up and dropped; the last one is measured. Returns the workloads
    module it came from, the instance and the median set-up time in
    reference seconds."""
    from calibration import Calibration

    inputs = importlib.import_module("workloads").WORKLOADS[name].make_inputs(seed)
    cal = Calibration()
    times = []
    for rep in range(SETUPS):
        for mod in [m for m in sys.modules if m == "workloads" or m.split(".")[0] == "bidrn"]:
            del sys.modules[mod]
        gc.collect()
        cal.sample()
        t0 = time.perf_counter()
        workloads = importlib.import_module("workloads")
        wl = workloads.WORKLOADS[name](seed, inputs)
        times.append(time.perf_counter() - t0)
        if rep == 0:
            warm = wl
    for _ in range(WARMUP_ITERATIONS):
        if warm.trains:
            warm.step()
        warm.forward()
    return workloads, wl, statistics.median(t * f for t, f in zip(times, cal.factors()))


def timing_metrics(prefix, samples):
    import numpy as np
    return {
        f"{prefix}_p50": (statistics.median(samples), "ms"),
        f"{prefix}_p90": (float(np.percentile(samples, 90)), "ms"),
        f"{prefix}_n": (len(samples), "count"),
    }


def loss_ratio(losses):
    """Mean of losses 380-399 over the mean of losses 0-19. The steps are
    fixed, so it is deterministic for a seed."""
    if len(losses) < LOSS_WINDOW:
        return None
    return statistics.fmean(losses[LOSS_WINDOW - RATIO_SPAN:LOSS_WINDOW]) / \
        statistics.fmean(losses[:RATIO_SPAN])


def per_layer(wl, tracer, untraced: Phase, traced: Phase, batch):
    """Per-layer metrics of the traced phase, its overhead against the
    untraced phase, and the gate that the kernel's MAC count equals the
    ``model_stats`` count for every network forward that ran."""
    from spans import summarize

    layer = summarize(tracer, traced.iterations, traced.scale)
    macs, ms = layer["binary.xnor_popcount_matmul.macs"], layer["binary.xnor_popcount_matmul.ms"]
    layer["binary.xnor_popcount_matmul.gmac_s"] = (macs[0] / ms[0] / 1e6, "GMAC/s")
    layer["trace.overhead.step"] = (
        statistics.median(traced.steps) / statistics.median(untraced.steps), "ratio")
    layer["trace.overhead.forward"] = (
        statistics.median(traced.forwards) / statistics.median(untraced.forwards), "ratio")
    layer.update(timing_metrics("traced_step_ms", traced.steps))
    layer.update(timing_metrics("traced_forward_ms", traced.forwards))
    checks = []
    stats = wl.model_stats()
    if stats is not None:
        layer["stats.ops_bin"] = (stats.ops_bin, "count")
        layer["stats.ops_fp"] = (stats.ops_fp, "count")
        forwards_run = len(traced.forwards) + (len(traced.steps) if wl.trains else 0)
        checks.append(("kernel MACs equal model_stats ops_bin",
                      tracer.counts["binary.xnor_popcount_matmul.macs"]
                      == stats.ops_bin * batch * forwards_run))
    return layer, checks


def machine_record(seed, inherited_threads, malloc):
    import numpy as np
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "openblas_threads_inherited": inherited_threads,
        "malloc": malloc,
        "git_sha": git_sha(),
        "seed": seed,
    }


def fix_malloc():
    """Fixes glibc's malloc thresholds before the package loads. By default
    glibc raises its mmap threshold as large arrays are freed and gives freed
    memory back to the system, so whether a temporary of a few hundred KB is
    page-faulted in afresh depends on the allocator's history. In
    ``boxnet-train`` that moved the held-out forward by 10% for seconds at a
    time. Returns the settings for the machine record, or None where there
    is no ``mallopt`` (not glibc)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return None
    m_trim_threshold, m_mmap_threshold = -1, -3
    if mallopt(m_trim_threshold, TRIM_THRESHOLD) and mallopt(m_mmap_threshold, MMAP_THRESHOLD):
        return {"mmap_threshold": MMAP_THRESHOLD, "trim_threshold": TRIM_THRESHOLD}
    return None


def git_sha():
    """HEAD of the checkout, or None where it is not a git repository. The
    search stops at the checkout's root."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "bidrn", "__init__.py")):
        print(f"error: no bidrn package under {SRC}", file=sys.stderr)
        return 2
    malloc = fix_malloc()
    inherited_threads = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    sys.path[:0] = [SRC, HERE]
    import bidrn
    if not os.path.abspath(bidrn.__file__).startswith(SRC + os.sep):
        print(f"error: bidrn imported from {bidrn.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workloads, wl, setup_s = set_up(args.workload, args.seed)

    layer, trace_checks = {}, []
    if args.trace:
        untraced = measure(wl, args.seconds / 2)
        tracer = Tracer()
        tracer.install(getattr(wl, "network", None))
        try:
            traced = measure(wl, args.seconds / 2, tracer)
        finally:
            tracer.remove()
        phases = [untraced, traced]
    else:
        untraced = measure(wl, args.seconds)
        phases = [untraced]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace:
        layer, trace_checks = per_layer(wl, tracer, untraced, traced, workloads.BATCH)
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{args.workload}.npz"))

    timed = untraced.forwards + (untraced.steps if wl.trains else [])
    metrics = {}
    metrics.update(timing_metrics("step_ms", untraced.steps))
    metrics.update(timing_metrics("forward_ms", untraced.forwards))
    metrics["throughput_img_s"] = (1e3 * workloads.BATCH * len(timed) / sum(timed), "img/s")
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    metrics["calibration_scale"] = (untraced.scale, "ratio")
    metrics.update(timing_metrics("wall_step_ms", untraced.wall_steps))
    metrics.update(timing_metrics("wall_forward_ms", untraced.wall_forwards))
    ratio = loss_ratio(wl.losses())
    if ratio is not None:
        metrics["loss_ratio"] = (ratio, "ratio")

    results = list(wl.checks()) + trace_checks
    results += [(f"training error: {p.error}", False) for p in phases if p.error is not None]
    failures = [name for name, ok in results if not ok]
    attempted, failed = len(results), len(failures)
    metrics["error_rate"] = (failed / attempted, "ratio")

    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(args.seed, inherited_threads, malloc),
        "iterations": sum(p.iterations for p in phases),
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())},
    }
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1)

    print("machine: " + json.dumps(record["machine"]))
    for name in failures[:20]:
        print(f"FAILED check: {name}")
    for k, (v, u) in metrics.items():
        print(f"{args.workload} {k} {v:.6g} {u}")
    for k, (v, u) in sorted(layer.items()):
        print(f"{args.workload} layer {k} {v:.6g} {u}")

    source, names = (layer, PER_LAYER) if args.trace else (metrics, END_TO_END)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": source[k][0], "unit": source[k][1]} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
