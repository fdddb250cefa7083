#!/usr/bin/env python3
"""Band-coverage study on the packaged reference system.

Simulates the reference system at its working sample size, runs the
full bootstrap in every trial, and reports how often each nominal band
contains the true cumulative multiplier. The defaults reproduce the
release-gate numbers (300 trials x 1000 replications, 28-38 s on
two cores); pass smaller --trials/--reps for a quick look. A count
outside 1..100000, or a --sample or --seed the reference system
rejects, or an --out directory that cannot be created, is a config
error: one line on stderr and exit code 2, before anything is simulated.
A coverage.csv that cannot be written is the same config error, after
the study has run and before it prints its table. A study in which
every trial fails is an estimation error: one line on stderr and exit
code 4 (a data error exits 3), as in the ``fiscalsvar`` commands. A
reader that closes stdout early ends the script with exit code 1 and no
traceback, the coverage.csv already written.
"""
from __future__ import annotations

import argparse
import time
from pathlib import Path

from fiscalsvar.bootstrap import BootstrapConfig
from fiscalsvar.cli import output_dir, run_guarded, write_csv
from fiscalsvar.dgp import RecoveryConfig, monte_carlo_recovery, reference_spec


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trials", type=int, default=300)
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--sample", type=int, default=84, help="simulated sample length")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="optional directory for coverage.csv")
    return run_guarded(run, parser.parse_args(argv))


def run(args) -> int:
    """The study the parsed flags ask for: write coverage.csv when
    asked, print its table, return 0."""
    spec = reference_spec(T=args.sample, seed=args.seed)
    config = RecoveryConfig(bootstrap=BootstrapConfig(replications=args.reps))
    out = None if args.out is None else output_dir(Path(args.out))
    start = time.perf_counter()
    report = monte_carlo_recovery(spec, args.trials, config)
    elapsed = time.perf_counter() - start

    levels = sorted(report.coverage)
    # the file first, so a reader that closes stdout early cannot lose it
    if out is not None:
        write_csv(out, "coverage.csv", {
            "h": range(1, len(report.analytic) + 1),
            "analytic": report.analytic,
            "median_abs_error": report.median_abs_error,
            "rmse": report.rmse,
            **{f"coverage{lv}": report.coverage[lv] for lv in levels},
        })
    print(
        f"{args.trials} trials x {args.reps} replications at T={spec.T}: "
        f"{report.failures} failures, {elapsed:.1f} s"
    )
    header = "  h   true m   med |err|     rmse" + "".join(
        f"   cov{lv}" for lv in levels
    )
    print(header)
    for h in range(len(report.analytic)):
        cells = "".join(f"  {report.coverage[lv][h]:6.3f}" for lv in levels)
        print(
            f"{h + 1:>3}  {report.analytic[h]:>7.3f}  {report.median_abs_error[h]:>9.4f}"
            f"  {report.rmse[h]:>7.4f}{cells}"
        )
    if out is not None:
        print(f"wrote {out / 'coverage.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
