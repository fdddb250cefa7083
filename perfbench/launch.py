"""Run one fiscalsvar entry point with its layer functions traced.

    python3 perfbench/launch.py SPANS.json -m fiscalsvar estimate --config ...
    python3 perfbench/launch.py SPANS.json scripts/coverage_experiment.py ...

Wraps every function in TARGETS, runs the entry point as ``__main__`` with
the remaining arguments, and writes the recorded spans and counters to
SPANS.json when it ends. The exit code is the entry point's. The package
must be importable, which run.py arranges through PYTHONPATH.
"""
from __future__ import annotations

import runpy
import sys

from spans import Tracer

# module -> public functions whose calls become spans; the layers of the
# per-layer breakdown. series and errors do no measurable work.
TARGETS = {
    "ingest": ("load_csv", "build_panel"),
    "var": ("estimate_var", "stability"),
    "svar": ("identify_cholesky", "irf", "multiplier_path"),
    "bootstrap": (
        "bootstrap_inference",
        "resample_residuals",
        "simulate_bootstrap_series",
        "quantile_bands",
        "significance_flags",
    ),
    "dgp": ("simulate_var", "monte_carlo_recovery"),
    "plots": ("render_band_plot",),
    "cli": ("run_pipeline", "emit_table"),
}


def count_replications(tracer, args, kwargs, result):
    tracer.add("bootstrap.replications", getattr(result, "replications", 0))
    tracer.add("bootstrap.failed", len(getattr(result, "failed", ())))


def count_lsq_flops(tracer, args, kwargs, result):
    """Floating-point operations of one least-squares fit, computed from
    the design shape (n rows, m regressors, k equations), not counted:
    Householder QR and the explicit reduced Q, 2 * (2nm^2 - 2m^3/3);
    Q'Y, 2nmk; the LU solve against R, 2m^3/3 + 2m^2k; residuals,
    2nmk + nk; residual cross-product, 2nk^2.
    """
    n = getattr(result, "sample_size", 0)
    k = getattr(result, "k", 0)
    m = getattr(result, "n_regressors", 0)
    flops = (
        2 * (2 * n * m * m - 2 * m**3 / 3)
        + 2 * n * m * k
        + 2 * m**3 / 3 + 2 * m * m * k
        + 2 * n * m * k + n * k
        + 2 * n * k * k
    )
    tracer.add("var.estimate_var.flops_computed", round(flops))


HOOKS = {
    "bootstrap.bootstrap_inference": count_replications,
    "var.estimate_var": count_lsq_flops,
}


def main(argv: list[str]) -> int:
    spans_path, target = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install("fiscalsvar", TARGETS, HOOKS)
    code = 0
    try:
        if target[0] == "-m":
            sys.argv = [target[1]] + target[2:]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(target)
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    finally:
        tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
