"""Importing the package stays cheap: every command pays for its imports
at start-up, and ``numpy.random`` alone adds tens of milliseconds. The
package imports it on the first draw, not before."""
import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from fiscalsvar.dgp import reference_spec

ROOT = Path(__file__).resolve().parents[1]


def test_import_leaves_numpy_random_unloaded():
    code = (
        "import sys\n"
        "import fiscalsvar.cli, fiscalsvar.dgp, fiscalsvar.bootstrap\n"
        "print('numpy.random' in sys.modules)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert out == ["False"]


def test_fan_out_loads_no_process_pool(tmp_path):
    # countries and trials run in bare os.fork workers: a process pool's
    # import and set-up cost more than the fan-out saves on the snapshot
    dgp = tmp_path / "dgp.json"
    code = (
        "import json, sys\n"
        "from fiscalsvar.cli import main\n"
        "from fiscalsvar.dgp import reference_spec\n"
        "with open(sys.argv[1], 'w', encoding='utf-8') as fh:\n"
        "    json.dump(reference_spec().to_dict(), fh)\n"
        "assert main(['montecarlo', '--config', sys.argv[1], '--reps', '40']) == 0\n"
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code, str(dgp)], env=env, capture_output=True,
                         text=True, check=True).stdout.splitlines()
    assert out[-1] == "[]"


# the modules a command may leave unloaded: numpy.ma (through np.quantile
# or np.median), the Monte Carlo harness, the SVG renderer and hashlib
WATCHED = ("numpy.ma", "fiscalsvar.dgp", "fiscalsvar.plots", "hashlib")


def loaded_by(entry: str, *args: str) -> list[str]:
    """The WATCHED modules loaded after ``main(args)`` returned 0 in a
    fresh interpreter pinned to one CPU, so fan_out runs inline and every
    import a worker would make shows in ``sys.modules``; ``entry`` is the
    statement that binds ``main``."""
    code = (
        "import os, sys\n"
        "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
        f"{entry}\n"
        "assert main(sys.argv[1:]) == 0\n"
        f"print(sorted(m for m in {WATCHED!r} if m in sys.modules))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                         text=True, check=True, cwd=ROOT).stdout.splitlines()
    return ast.literal_eval(out[-1])


CLI = "from fiscalsvar.cli import main"
COVERAGE = "from runpy import run_path; main = run_path('scripts/coverage_experiment.py')['main']"


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """What each command loads: validate and estimate on the snapshot,
    montecarlo on the reference system, and the coverage script."""
    tmp = tmp_path_factory.mktemp("imports")
    spec = tmp / "dgp.json"
    spec.write_text(json.dumps(reference_spec().to_dict()), encoding="utf-8")
    config = str(ROOT / "data" / "v4_config.json")
    return {
        "validate": loaded_by(CLI, "validate", "--config", config, "--out", str(tmp / "v")),
        "estimate": loaded_by(CLI, "estimate", "--config", config, "--reps", "50",
                              "--out", str(tmp / "e")),
        "montecarlo": loaded_by(CLI, "montecarlo", "--config", str(spec), "--reps", "40"),
        "coverage": loaded_by(COVERAGE, "--trials", "2", "--reps", "50"),
    }


@pytest.mark.parametrize("command", ["estimate", "montecarlo", "coverage"])
def test_bands_and_medians_leave_numpy_ma_unloaded(loaded, command):
    assert "numpy.ma" not in loaded[command]


def test_validate_loads_no_dgp_plots_or_hashlib(loaded):
    assert not {"fiscalsvar.dgp", "fiscalsvar.plots", "hashlib"} & set(loaded["validate"])


def test_estimate_leaves_dgp_unloaded(loaded):
    assert "fiscalsvar.dgp" not in loaded["estimate"]


@pytest.mark.parametrize("command", ["montecarlo", "coverage"])
def test_studies_leave_plots_unloaded(loaded, command):
    assert "fiscalsvar.plots" not in loaded[command]
