"""Importing the package stays cheap: every command pays for its imports
at start-up, and ``numpy.random`` alone adds tens of milliseconds. The
package imports it on the first draw, not before."""
import os
import subprocess
import sys
from pathlib import Path

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
