import importlib.util
from pathlib import Path

MODULE = '''"""Module docstring,
two lines."""
import os  # a comment beside code is code

# a comment line


def f(x):
    """One-line docstring."""
    text = """a multi-line string
that is not a docstring"""
    return x


class C:
    """Class docstring."""; k = 1
'''


def load_script():
    path = Path(__file__).resolve().parents[1] / "scripts" / "src_lines.py"
    spec = importlib.util.spec_from_file_location("src_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_pinned_on_a_synthetic_module(tmp_path, capsys):
    # code lines: the import, def f, the two lines of text, return, class C
    # and the docstring line that also holds k = 1
    script = load_script()
    assert script.count(MODULE) == (16, 7)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "n.py").write_text("x = 1\n\n", encoding="utf-8")
    assert script.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == f"{tmp_path}: 18 physical lines, 8 code lines\n"
