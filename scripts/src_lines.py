#!/usr/bin/env python3
"""Line counts of the package source: physical lines and code lines.

A code line holds a token of code. Blank lines, lines holding only a
comment, and the lines of a docstring (the string that opens a module,
class or function body, found with :mod:`ast`) are not code lines; a
line that holds code beside a comment or a docstring is.

    python3 scripts/src_lines.py [DIR]

counts every ``*.py`` file under DIR, by default the repository's
``src/``, and prints one line with both counts.
"""
from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def count(source: str) -> tuple[int, int]:
    """(physical lines, code lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docstrings.add((first.lineno, first.col_offset))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start not in docstrings:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    root = Path(args[0]) if args else ROOT / "src"
    physical = code = 0
    for path in sorted(root.rglob("*.py")):
        p, c = count(path.read_text(encoding="utf-8"))
        physical, code = physical + p, code + c
    print(f"{root}: {physical} physical lines, {code} code lines")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
