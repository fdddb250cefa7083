"""Each benchmark workload's outputs at the golden seed match
perfbench/golden, through the benchmark's own comparisons: tables
exactly, CSV cells at its relative tolerance. A change that moves the
numbers fails here, not only in a benchmark run."""
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import run  # noqa: E402


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_workload_matches_golden(tmp_path, name):
    wl = run.WORKLOADS[name]()
    wl.prepare(run.GOLDEN_SEED, tmp_path)
    out = tmp_path / "out"
    argv = [sys.executable, *wl.target(run.GOLDEN_SEED, tmp_path, out)]
    rep = run.run_process(argv, tmp_path / "log", timeout=120.0)
    assert rep.code == 0, rep.stderr
    wl.check_golden(out)
