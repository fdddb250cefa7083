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
