"""Command-line surface: verification, gradient checks, stats, benchmarks,
toy training, and config scaffolding.

Exit codes: 0 success, 1 verification failure or training error, 2 usage or
config error.
"""

from __future__ import annotations

import json
import os
import sys

import click
import numpy as np

from . import bench as bench_mod
from . import config as config_mod
from . import gradcheck as gradcheck_mod
from . import stats as stats_mod
from . import train as train_mod
from . import verify as verify_mod
from .errors import ConfigError, TrainingError


def _output_path(ctx, param, path):
    """Exits 2 before the command runs if ``path``'s directory is missing or read-only."""
    if path and not os.access(os.path.dirname(os.path.abspath(path)), os.W_OK):
        click.echo(f"usage error: cannot write {path}: no writable directory", err=True)
        sys.exit(2)
    return path


class _Main(click.Group):
    """Maps the package's typed errors from any command to one stderr line
    and an exit code: ConfigError exits 2, TrainingError 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ConfigError as e:
            click.echo(f"config error: {e}", err=True)
            sys.exit(2)
        except TrainingError as e:
            click.echo(f"training error: {e}", err=True)
            sys.exit(1)


@click.group(cls=_Main)
def main():
    """1-bit convolution kit: XNOR-popcount kernels, dual-residual blocks,
    and their verification harness."""


@main.command()
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--cases", default=150, show_default=True, type=click.IntRange(min=1),
              help="Randomized cases per suite.")
def verify(seed, cases):
    """Run packed-vs-oracle equivalence, packing, scaling, and shape suites."""
    report = verify_mod.run_all(seed=seed, cases=cases)
    for line in report.summary_lines():
        click.echo(line)
    click.echo(f"total: {report.total_passed} passed")
    if not report.ok:
        sys.exit(1)


@main.command()
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
def gradcheck(seed):
    """Compare every backward rule against central finite differences."""
    results = gradcheck_mod.run_all(seed=seed)
    ok = True
    for name, err in results.items():
        status = "PASS" if err <= gradcheck_mod.REL_TOL else "FAIL"
        ok &= err <= gradcheck_mod.REL_TOL
        click.echo(f"[{status}] {name}: worst relative error {err:.3e}")
    # saturated probe: surrogate gradient is identically zero outside [-1, 1]
    from .binary import ste_grad
    saturated = ste_grad(np.array([-3.0, -1.0, 1.0, 2.5]))
    click.echo(f"saturated-input probe gradient: {saturated.tolist()}")
    if np.any(saturated != 0.0):
        ok = False
    if not ok:
        sys.exit(1)


@main.command()
@click.option("--config", "config_path", required=True,
              type=click.Path(), help="Network config JSON.")
def stats(config_path):
    """Print parameter/operation accounting for a config as JSON."""
    result = stats_mod.model_stats(config_mod.load_config(config_path))
    click.echo(result.to_json(), nl=False)


@main.command()
@click.option("--sizes", default="small", show_default=True,
              type=click.Choice(sorted(bench_mod.SIZE_PRESETS)))
@click.option("--reps", default=5, show_default=True, type=click.IntRange(min=1))
@click.option("--batch", default=1, show_default=True, type=click.IntRange(min=1),
              help="Images per convolution.")
@click.option("--seed", default=0, show_default=True, type=click.IntRange(min=0))
@click.option("--out", type=click.Path(dir_okay=False), callback=_output_path,
              help="Write the CSV report here instead of stdout.")
@click.option("--json", "json_path", type=click.Path(dir_okay=False), callback=_output_path,
              help="Also write a JSON record with the machine, the kernel rows and "
                   "the end-to-end forward and train-step times.")
def bench(sizes, reps, batch, seed, out, json_path):
    """Benchmark packed 1-bit convolution against the float reference and a
    ±1 float32 GEMM, and the box head's transposed convs against the col2im
    scatter form (exit 1 if a packed output disagrees with the float oracle,
    the GEMM disagrees with the packed accumulator, or a transposed conv
    disagrees with the scatter form). Warns on stderr unless
    OPENBLAS_NUM_THREADS is 1."""
    warning = bench_mod.blas_threads_warning()
    if warning:
        click.echo(warning, err=True)
    rows = bench_mod.bench_conv(bench_mod.SIZE_PRESETS[sizes], reps=reps, seed=seed,
                                batch=batch)
    rows += bench_mod.bench_deconv(bench_mod.boxnet_deconv_shapes(), reps=reps, seed=seed,
                                   batch=batch)
    report = bench_mod.report_csv(rows)
    if out:
        with open(out, "w") as f:
            f.write(report)
        click.echo(f"wrote {out}")
    else:
        click.echo(report, nl=False)
    if json_path:
        record = bench_mod.bench_record(rows, sizes, reps, batch, seed)
        with open(json_path, "w") as f:
            json.dump(record, f, indent=1)
            f.write("\n")
        click.echo(f"wrote {json_path}", err=True)
    bad = [r.geometry for r in rows if r.checksum == "MISMATCH"]
    if bad:
        click.echo(f"packed output differs from the float oracle or the ±1 GEMM, or a "
                   f"transposed conv from the col2im form: "
                   f"{', '.join(bad)}", err=True)
        sys.exit(1)


@main.command("train-toy")
@click.option("--config", "config_path", type=click.Path(), default=None,
              help="Network config JSON; defaults to the full-bidrb preset.")
@click.option("--steps", default=500, show_default=True, type=click.IntRange(min=0))
@click.option("--seed", default=7, show_default=True, type=click.IntRange(min=0))
@click.option("--lr", default=1e-2, show_default=True, type=float)
@click.option("--out", type=click.Path(dir_okay=False), callback=_output_path,
              help="Loss-trace CSV path; checkpoint goes next to it.")
def train_toy(config_path, steps, seed, lr, out):
    """Train the tiny network on the synthetic teacher task."""
    if not (np.isfinite(lr) and lr >= 0):
        raise click.BadParameter(f"{lr} is not a finite number >= 0", param_hint="'--lr'")
    if config_path:
        cfg = config_mod.load_config(config_path)
    else:
        cfg = config_mod.preset_config("full-bidrb")
    trace, net = train_mod.train_toy(cfg, steps=steps, seed=seed, lr=lr)
    csv_text = train_mod.trace_to_csv(trace)
    if out:
        with open(out, "w") as f:
            f.write(csv_text)
        ckpt = out + ".ckpt" if not out.endswith(".csv") else out[:-4] + ".ckpt"
        config_mod.save_checkpoint(ckpt, config_mod.network_state(net))
        click.echo(f"wrote {out} and {ckpt}")
    else:
        click.echo(csv_text, nl=False)
    if trace:
        click.echo(f"final loss: {trace[-1][1]:.4f} (initial {trace[0][1]:.4f})")


@main.command("init-config")
@click.argument("kind")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              callback=_output_path, help="Where to write the config (default <kind>.json).")
def init_config(kind, out):
    """Write a template config: base-lcr, full-bidrb, or table4a-step-N."""
    cfg = config_mod.preset_config(kind)
    path = out or f"{kind}.json"
    config_mod.save_config(cfg, path)
    click.echo(f"wrote {path}")


if __name__ == "__main__":
    main()
