#!/usr/bin/env python3
"""End-to-end benchmark of fiscalsvar, with an optional traced breakdown.

    python3 perfbench/run.py --workload v4_estimate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout; the package is imported from
``src/`` (nothing needs installing). Each run

* times the workload's set-up process several times (``--trace 0``),
* reruns the workload process with inputs made from ``--seed`` until
  ``--seconds`` have passed, at least MIN_REPS times,
* reruns it once at GOLDEN_SEED and compares the outputs with the golden
  files in ``perfbench/golden``,
* with ``--trace 0``, times the reference computation of reference.py
  around every timed process and reports times corrected for the
  host's speed,

then prints a readable summary, an ``env`` line and, last, one JSON
object. With ``--trace 1`` the workload process alternates between the
plain entry point and the traced launcher (launch.py) and the JSON holds
the per-layer metrics instead. The exit code is 0 when every output
check passed, 1 when one failed and 2 when the checkout is incomplete.

Workloads, metrics and the layer-to-metric map are described in
perfbench/README.md.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import spans as spanlib
from launch import TARGETS
from reference import REF_UNIT_S, STARTUP_REF_S, host_factor, reference, startup_reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
GOLDEN_DIR = BENCH_DIR / "golden"
V4_CONFIG = "data/v4_config.json"
COVERAGE_SCRIPT = "scripts/coverage_experiment.py"
REQUIRED = ("src/fiscalsvar/__init__.py", V4_CONFIG, COVERAGE_SCRIPT, "BENCHMARK.json")

GOLDEN_SEED = 0
SETUP_RUNS = 11
MIN_REPS = 4
# reference units timed before and after each workload process, about one
# second on the baseline host; a multiple of every workload's thread count
WORK_REF_UNITS = 100
# every process of one run must end within this many seconds of its start
RUN_BUDGET_S = 170.0
# IRF and multiplier cells may move by rounding when the kernel's
# arithmetic order changes (about 1e-16 relative); stars and 3-decimal
# table cells must match exactly
GOLDEN_RTOL = 1e-9
GOLDEN_ATOL = 1e-15


class CheckFailed(Exception):
    """An output of the program is missing, malformed or wrong."""


@dataclass
class Rep:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_process(argv: list[str], log_stem: Path, timeout: float) -> Rep:
    """Run one child process to completion and take its own resource use.

    Output goes to files so that ``os.wait4`` can reap the child and
    return its rusage; a timer kills the child at ``timeout``.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        killer = threading.Timer(max(timeout, 0.1), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Rep(
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
        code=proc.returncode,
        stdout=out_path.read_text(encoding="utf-8", errors="replace"),
        stderr=err_path.read_text(encoding="utf-8", errors="replace"),
    )


# ----------------------------------------------------------------- checks


def read_csv(path: Path) -> list[list[str]]:
    if not path.is_file():
        raise CheckFailed(f"missing output {path.name}")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckFailed(f"{path.name} is empty")
    return rows


def as_float(cell: str, where: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise CheckFailed(f"{where}: not a number: {cell!r}") from None
    if not math.isfinite(value):
        raise CheckFailed(f"{where}: not finite: {cell!r}")
    return value


def close(got: float, want: float) -> bool:
    return abs(got - want) <= GOLDEN_RTOL * max(abs(got), abs(want)) + GOLDEN_ATOL


def compare_csv(got: Path, want: Path) -> None:
    """Cells that parse as numbers must agree within GOLDEN_RTOL; every
    other cell (labels, stars) must match exactly."""
    got_rows, want_rows = read_csv(got), read_csv(want)
    if len(got_rows) != len(want_rows) or got_rows[:1] != want_rows[:1]:
        raise CheckFailed(f"{got.name}: shape or header differs from golden")
    for r, (g_row, w_row) in enumerate(zip(got_rows[1:], want_rows[1:]), start=2):
        if len(g_row) != len(w_row):
            raise CheckFailed(f"{got.name} row {r}: cell count differs from golden")
        for c, (g, w) in enumerate(zip(g_row, w_row)):
            try:
                w_val = float(w)
            except ValueError:
                if g != w:
                    raise CheckFailed(f"{got.name} row {r} col {c + 1}: {g!r} != golden {w!r}")
                continue
            if not close(as_float(g, f"{got.name} row {r} col {c + 1}"), w_val):
                raise CheckFailed(f"{got.name} row {r} col {c + 1}: {g} != golden {w}")


def compare_text(got: Path, want: Path) -> None:
    if not got.is_file():
        raise CheckFailed(f"missing output {got.name}")
    if got.read_bytes() != want.read_bytes():
        raise CheckFailed(f"{got.name} differs from golden")


def column(rows: list[list[str]], name: str, where: str) -> list[float]:
    if name not in rows[0]:
        raise CheckFailed(f"{where}: no column {name!r}")
    j = rows[0].index(name)
    return [as_float(row[j], f"{where} row {i + 2}") for i, row in enumerate(rows[1:])]


def bundle_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def bundle_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


# -------------------------------------------------------------- workloads


class Workload:
    """One set of inputs and the entry point that consumes them.

    ``target`` returns the interpreter arguments of the workload process,
    ``setup_target`` those of a process that imports the package and
    loads and validates the same inputs without estimating. ``tally``
    checks one run's outputs and returns (fits, attempted, failed);
    ``attempts`` is what a failed run counts as failed.
    """

    name = ""
    golden_files: tuple[str, ...] = ()
    attempts = 0
    # Python threads the workload process keeps busy at once
    threads = 1

    def prepare(self, seed: int, work: Path) -> None:
        """Write any input files the seed determines."""

    def target(self, seed: int, work: Path, out: Path) -> list[str]:
        raise NotImplementedError

    def setup_target(self, seed: int, work: Path) -> list[str]:
        raise NotImplementedError

    def tally(self, out: Path, stdout: str) -> tuple[int, int, int]:
        raise NotImplementedError

    def check_golden(self, out: Path) -> None:
        for name in self.golden_files:
            want = GOLDEN_DIR / self.name / name
            if name.endswith(".csv"):
                compare_csv(out / name, want)
            else:
                compare_text(out / name, want)


class V4Estimate(Workload):
    """``fiscalsvar estimate`` on the packaged four-country snapshot."""

    name = "v4_estimate"

    def __init__(self):
        with open(ROOT / V4_CONFIG, encoding="utf-8") as fh:
            config = json.load(fh)
        self.codes = [c["code"] for c in config["countries"]]
        # the estimate command fits the countries in a pool of one thread each
        self.threads = len(self.codes)
        self.attempts = len(self.codes) * config.get("replications", 1000)
        self.golden_files = ("table1.txt",) + tuple(
            f"{kind}_{code}.csv" for code in self.codes for kind in ("irf", "multipliers")
        )

    def target(self, seed, work, out):
        return ["-m", "fiscalsvar", "estimate", "--config", V4_CONFIG,
                "--out", str(out), "--seed", str(seed)]

    def setup_target(self, seed, work):
        return ["-m", "fiscalsvar", "validate", "--config", V4_CONFIG]

    def tally(self, out, stdout):
        try:
            manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
            countries = manifest["countries"]
            reps = int(manifest["replications"])
            failed = {code: int(countries[code]["failed_replications"]) for code in self.codes}
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise CheckFailed(f"manifest.json unreadable: {exc!r}") from None
        table = self._check_table(out)
        for code in self.codes:
            self._check_country(out, code, table[code])
        attempted = reps * len(self.codes)
        fits = sum(1 + reps - f for f in failed.values())
        return fits, attempted, sum(failed.values())

    def _check_table(self, out: Path) -> dict[str, list[str]]:
        """table1.txt cells by country, checked against table1.csv."""
        rows = read_csv(out / "table1.csv")
        codes = [h[:-2] for h in rows[0] if h.endswith("_m")]
        if codes != self.codes:
            raise CheckFailed(f"table1.csv countries {codes} != {self.codes}")
        lines = (out / "table1.txt").read_text(encoding="utf-8").splitlines()[1:]
        if len(lines) != len(rows) - 1:
            raise CheckFailed("table1.txt and table1.csv disagree on row count")
        cells = {code: [] for code in codes}
        for h, (line, row) in enumerate(zip(lines, rows[1:]), start=1):
            tokens = line.split()
            if tokens[0] != f"Q{h}" or row[0] != f"Q{h}" or len(tokens) != len(codes) + 1:
                raise CheckFailed(f"table1.txt row Q{h} malformed: {line!r}")
            for j, code in enumerate(codes):
                value = as_float(row[1 + 2 * j], f"table1.csv Q{h} {code}")
                expect = f"{value:.3f}{row[2 + 2 * j]}"
                if tokens[1 + j] != expect:
                    raise CheckFailed(f"table1.txt Q{h} {code}: {tokens[1 + j]} != {expect}")
                cells[code].append(expect)
        return cells

    def _check_country(self, out: Path, code: str, table_cells: list[str]) -> None:
        """Bands nest, stars follow from the bands, and the table agrees."""
        where = f"multipliers_{code}.csv"
        rows = read_csv(out / where)
        m = column(rows, "m", where)
        lo68, hi68 = column(rows, "lo68", where), column(rows, "hi68", where)
        lo90, hi90 = column(rows, "lo90", where), column(rows, "hi90", where)
        stars = [row[rows[0].index("stars")] for row in rows[1:]]
        for h in range(len(m)):
            if not lo90[h] <= lo68[h] <= hi68[h] <= hi90[h]:
                raise CheckFailed(f"{where} Q{h + 1}: bands do not nest")
            if lo90[h] > 0 or hi90[h] < 0:
                expect = "**"
            elif lo68[h] > 0 or hi68[h] < 0:
                expect = "*"
            else:
                expect = ""
            if stars[h] != expect:
                raise CheckFailed(f"{where} Q{h + 1}: stars {stars[h]!r} != {expect!r}")
            if table_cells[h] != f"{m[h]:.3f}{stars[h]}":
                raise CheckFailed(f"table1.txt Q{h + 1} {code} disagrees with {where}")
        irf_rows = read_csv(out / f"irf_{code}.csv")
        for name in irf_rows[0][2:]:
            column(irf_rows, name, f"irf_{code}.csv")


class BandCoverage(Workload):
    """scripts/coverage_experiment.py on the reference system."""

    name = "band_coverage"
    golden_files = ("coverage.csv",)
    TRIALS = 4
    REPS = 1000
    attempts = TRIALS
    SAMPLE = 84
    SETUP = (
        "import sys\n"
        "from fiscalsvar.bootstrap import BootstrapConfig\n"
        "from fiscalsvar.dgp import RecoveryConfig, reference_spec\n"
        "reference_spec(T=int(sys.argv[1]), seed=int(sys.argv[2]))\n"
        "RecoveryConfig(bootstrap=BootstrapConfig(replications=int(sys.argv[3])))\n"
    )
    SUMMARY = re.compile(r"^(\d+) trials x (\d+) replications at T=(\d+): (\d+) failures", re.M)

    def target(self, seed, work, out):
        return [COVERAGE_SCRIPT, "--trials", str(self.TRIALS), "--reps", str(self.REPS),
                "--sample", str(self.SAMPLE), "--seed", str(seed), "--out", str(out)]

    def setup_target(self, seed, work):
        return ["-c", self.SETUP, str(self.SAMPLE), str(seed), str(self.REPS)]

    def tally(self, out, stdout):
        match = self.SUMMARY.search(stdout)
        if not match:
            raise CheckFailed("coverage summary line missing from stdout")
        trials, reps, _, failures = (int(g) for g in match.groups())
        if (trials, reps) != (self.TRIALS, self.REPS):
            raise CheckFailed(f"ran {trials} x {reps}, asked for {self.TRIALS} x {self.REPS}")
        where = "coverage.csv"
        rows = read_csv(out / where)
        check_analytic(rows, where, GOLDEN_DIR / self.name / where)
        cov68, cov90 = column(rows, "coverage68", where), column(rows, "coverage90", where)
        for h, (c68, c90) in enumerate(zip(cov68, cov90), start=1):
            if not 0.0 <= c68 <= c90 <= 1.0:
                raise CheckFailed(f"{where} h={h}: coverage 68 {c68} / 90 {c90} out of order")
        return (trials - failures) * (1 + reps), trials, failures


class PointRecovery(Workload):
    """``fiscalsvar montecarlo`` on a JSON dump of the reference system."""

    name = "point_recovery"
    golden_files = ("recovery.csv",)
    TRIALS = 2000
    attempts = TRIALS
    SETUP = (
        "import json, sys\n"
        "from fiscalsvar.dgp import DgpSpec\n"
        "with open(sys.argv[1], encoding='utf-8') as fh:\n"
        "    DgpSpec.from_dict(json.load(fh))\n"
    )
    SUMMARY = re.compile(r"^(\d+) trials at T=(\d+), failures (\d+)", re.M)

    @staticmethod
    def dgp_path(seed: int, work: Path) -> Path:
        return work / f"dgp_{seed}.json"

    @staticmethod
    def dgp_json(seed: int) -> str:
        """The workload's only input: the reference system at ``seed``."""
        if str(ROOT / "src") not in sys.path:
            sys.path.insert(0, str(ROOT / "src"))
        from fiscalsvar.dgp import reference_spec

        return json.dumps(reference_spec(seed=seed).to_dict(), sort_keys=True, indent=1)

    def prepare(self, seed, work):
        self.dgp_path(seed, work).write_text(self.dgp_json(seed), encoding="utf-8")

    def target(self, seed, work, out):
        return ["-m", "fiscalsvar", "montecarlo", "--config", str(self.dgp_path(seed, work)),
                "--reps", str(self.TRIALS), "--out", str(out)]

    def setup_target(self, seed, work):
        return ["-c", self.SETUP, str(self.dgp_path(seed, work))]

    def tally(self, out, stdout):
        match = self.SUMMARY.search(stdout)
        if not match:
            raise CheckFailed("montecarlo summary line missing from stdout")
        trials, _, failures = (int(g) for g in match.groups())
        if trials != self.TRIALS:
            raise CheckFailed(f"ran {trials} trials, asked for {self.TRIALS}")
        where = "recovery.csv"
        rows = read_csv(out / where)
        check_analytic(rows, where, GOLDEN_DIR / self.name / where)
        for name in ("median_abs_error", "rmse"):
            if min(column(rows, name, where)) < 0:
                raise CheckFailed(f"{where}: negative {name}")
        column(rows, "median_bias", where)
        return trials - failures, trials, failures


def check_analytic(rows: list[list[str]], where: str, golden: Path) -> None:
    """The true multiplier path does not depend on the seed."""
    got = column(rows, "analytic", where)
    want = column(read_csv(golden), "analytic", f"golden {where}")
    if len(got) != len(want) or not all(map(close, got, want)):
        raise CheckFailed(f"{where}: analytic multipliers differ from golden")


WORKLOADS = {cls.name: cls for cls in (V4Estimate, BandCoverage, PointRecovery)}


# ----------------------------------------------------------------- tracing


def layer_metrics(spans: list[spanlib.Span], counts: dict, wall: float) -> dict[str, float]:
    """Per-function calls and self time, counters, and span coverage."""
    own = spanlib.self_times(spans)
    calls, self_s = defaultdict(int), defaultdict(float)
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += own[s.id]
    metrics = {}
    for module, functions in TARGETS.items():
        for fn in functions:
            metrics[f"{module}.{fn}.calls"] = calls[f"{module}.{fn}"]
            metrics[f"{module}.{fn}.self_s"] = self_s[f"{module}.{fn}"]
    for name in ("bootstrap.replications", "bootstrap.failed", "var.estimate_var.flops_computed"):
        metrics[name] = counts.get(name, 0)
    pipelines = {s.id: s for s in spans if s.name == "cli.run_pipeline"}
    inside = sum(
        s.duration for s in spans
        if s.name == "bootstrap.bootstrap_inference" and s.parent in pipelines
    )
    span_total = sum(s.duration for s in pipelines.values())
    metrics["cli.country_overlap"] = inside / span_total if span_total else 0.0
    metrics["bench.uncovered_s"] = wall - spanlib.union_length((s.start, s.end) for s in spans)
    return metrics


# ------------------------------------------------------------------ runner


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": {
            var: os.environ.get(var, "unset")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


class Run:
    """One benchmark run of one workload: its processes, checks and tallies."""

    def __init__(self, workload: Workload, work: Path):
        self.wl = workload
        self.work = work
        self.deadline = time.perf_counter() + RUN_BUDGET_S
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.count = 0

    def process(self, argv: list[str]) -> Rep:
        self.count += 1
        rep = run_process(
            [sys.executable] + argv, self.work / f"p{self.count}",
            self.deadline - time.perf_counter(),
        )
        if rep.code != 0:
            tail = rep.stderr.strip().splitlines()[-3:]
            raise CheckFailed(f"exit code {rep.code}: {' | '.join(tail)}")
        return rep

    def workload_rep(self, seed: int, traced: bool = False):
        """One workload process; returns (rep, out dir, fits) or None on failure."""
        out = self.work / f"out{self.count + 1}"
        argv = self.wl.target(seed, self.work, out)
        if traced:
            argv = [str(BENCH_DIR / "launch.py"), str(out) + ".spans.json"] + argv
        try:
            rep = self.process(argv)
            fits, attempted, failed = self.wl.tally(out, rep.stdout)
        # the last three: outputs too malformed for the checks to parse
        except (CheckFailed, IndexError, KeyError, ValueError) as exc:
            self.problems.append(f"{self.wl.name} seed {seed}: {exc!r}")
            self.attempted += self.wl.attempts
            self.failed += self.wl.attempts
            return None
        self.attempted += attempted
        self.failed += failed
        return rep, out, fits

    def golden(self) -> None:
        self.wl.prepare(GOLDEN_SEED, self.work)
        done = self.workload_rep(GOLDEN_SEED)
        if done is None:
            return
        try:
            self.wl.check_golden(done[1])
        except CheckFailed as exc:
            self.problems.append(f"{self.wl.name} golden seed {GOLDEN_SEED}: {exc}")

    def same_outputs(self, outs: list[Path], seed: int) -> None:
        if len({bundle_digest(out) for out in outs}) > 1:
            self.problems.append(f"{self.wl.name} seed {seed}: reruns wrote different bytes")


def measure(wl: Workload, seed: int, seconds: float, trace: bool, work: Path):
    """Run one workload; returns (correct, attempted, failed, metrics, notes)."""
    run = Run(wl, work)
    wl.prepare(seed, work)
    notes = []
    metrics: dict[str, float] = {}
    done = []
    if not trace:
        # every measured process lies between two timings of the reference
        # computation; its times are divided by the host factor they give
        setup, factors = [], []
        before = startup_reference()
        for _ in range(SETUP_RUNS):
            try:
                wall = run.process(wl.setup_target(seed, work)).wall
            except CheckFailed as exc:
                run.problems.append(f"{wl.name} set-up: {exc}")
                break
            after = startup_reference()
            setup.append((wall, host_factor(before, after, STARTUP_REF_S)))
            before = after
        # (wall, CPU) factor pairs: wall times by the reference's wall
        # time, CPU times by its CPU time
        start = time.perf_counter()
        nominal = WORK_REF_UNITS * REF_UNIT_S
        before = reference(WORK_REF_UNITS, wl.threads)
        while len(done) < MIN_REPS or time.perf_counter() - start < seconds:
            rep = run.workload_rep(seed)
            if rep is None:
                break
            after = reference(WORK_REF_UNITS, wl.threads)
            done.append(rep)
            factors.append(tuple(host_factor(b, a, nominal) for b, a in zip(before, after)))
            before = after
        if setup and done:
            walls = [rep.wall for rep, _, _ in done]
            corrected = [w / f for w, (f, _) in zip(walls, factors)]
            metrics = {
                "wall_s": statistics.median(corrected),
                "fits_per_s": statistics.median(
                    fits * f / rep.wall for (rep, _, fits), (f, _) in zip(done, factors)
                ),
                "setup_s": statistics.median(w / f for w, f in setup),
                "cpu_s": statistics.median(
                    rep.cpu / f for (rep, _, _), (_, f) in zip(done, factors)
                ),
                "peak_rss_mb": statistics.median(rep.rss_mb for rep, _, _ in done),
            }
            notes.append(f"{len(done)} workload runs, {len(setup)} set-up runs; "
                         f"wall_s min {min(corrected):.4f} max {max(corrected):.4f}")
            notes.append(f"host factor median {statistics.median(f for f, _ in factors):.3f}, "
                         f"CPU {statistics.median(f for _, f in factors):.3f}; uncorrected "
                         f"wall_s median {statistics.median(walls):.4f} min {min(walls):.4f} "
                         f"max {max(walls):.4f}, setup_s median "
                         f"{statistics.median(w for w, _ in setup):.4f}")
    else:
        plain, traced = [], []
        start = time.perf_counter()
        while len(traced) < 1 or time.perf_counter() - start < seconds:
            rep = run.workload_rep(seed)
            rep_t = run.workload_rep(seed, traced=True) if rep else None
            if rep_t is None:
                break
            plain.append(rep)
            traced.append(rep_t)
        done = plain + traced
        if traced:
            per_rep = []
            for rep, out, _ in traced:
                spans, counts, missing = spanlib.load(str(out) + ".spans.json")
                row = layer_metrics(spans, counts, rep.wall)
                row["cli.bundle_bytes"] = bundle_bytes(out)
                row["bench.traced_wall_s"] = rep.wall
                per_rep.append(row)
            metrics = {name: statistics.median(row[name] for row in per_rep) for name in per_rep[0]}
            metrics["bench.tracing_overhead_s"] = metrics["bench.traced_wall_s"] - statistics.median(
                rep.wall for rep, _, _ in plain
            )
            notes.append(f"{len(plain)} plain and {len(traced)} traced workload runs")
            if missing:
                notes.append(f"not found, reported as 0 calls: {', '.join(missing)}")
    run.same_outputs([out for _, out, _ in done], seed)
    run.golden()
    if run.problems:
        run.failed = run.attempted
    if not metrics and not run.problems:
        run.problems.append(f"{wl.name}: nothing measured")
    return not run.problems, run.attempted, run.failed, metrics, notes + run.problems


def report(wl: Workload, correct, attempted, failed, metrics, notes) -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    print(f"== {wl.name}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  {'failed_share':<44} {failed / max(attempted, 1):>14.6g} "
          f"({failed} of {attempted} replications or trials)")
    for note in notes:
        print(f"  {note}")
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def write_golden(work: Path) -> None:
    """Regenerate perfbench/golden from the current code at GOLDEN_SEED."""
    for cls in WORKLOADS.values():
        wl = cls()
        run = Run(wl, work)
        wl.prepare(GOLDEN_SEED, work)
        out = work / f"golden_{wl.name}"
        rep = run.process(wl.target(GOLDEN_SEED, work, out))
        target = GOLDEN_DIR / wl.name
        target.mkdir(parents=True, exist_ok=True)
        for name in wl.golden_files:
            shutil.copyfile(out / name, target / name)
        wl.tally(out, rep.stdout)
        print(f"wrote {len(wl.golden_files)} golden files for {wl.name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-golden", action="store_true",
                        help="regenerate the golden outputs instead of measuring")
    args = parser.parse_args(argv)

    absent = [rel for rel in REQUIRED if not (ROOT / rel).is_file()]
    if absent:
        print(f"not a fiscalsvar checkout: missing {', '.join(absent)}", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.write_golden:
            write_golden(work)
            return 0
        names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
        print("env " + json.dumps(environment(), sort_keys=True))
        ok = True
        for name in names:
            wl = WORKLOADS[name]()
            result = report(wl, *measure(wl, args.seed, args.seconds, bool(args.trace), work))
            ok = ok and result["correct"]
            print(json.dumps(result), flush=True)
        return 0 if ok else 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
