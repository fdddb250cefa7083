"""Every public name in the package has a caller outside its own tests.

The public surface is each top-level function and class of
``src/fiscalsvar/*.py`` whose name has no leading underscore, and each
such method of those classes. A name counts as called when it appears as
a bare name or an attribute anywhere in ``src/``, ``scripts/``,
``perfbench/*.py`` or ``tests/test_acceptance.py``: what a command, a
script, the benchmark or a release gate uses. The unit tests do not
count, so a name only they call is dead code.

What the check cannot see: a public name that shares its spelling with a
local variable, a parameter read in a body or an attribute of something
else counts as used even when nothing calls it. A property ``k``
beside a ``least_squares`` parameter of that name, or a method
``quarters`` beside a local ``quarters`` list, would both pass.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fiscalsvar"
USERS = [
    *sorted((ROOT / "src").rglob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]


def public_names() -> set[str]:
    """``module.name`` and ``module.Class.method`` for the public surface."""
    names = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            names.add(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                names.update(
                    f"{path.stem}.{node.name}.{item.name}" for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_"
                )
    return names


def used_names() -> set[str]:
    used = set()
    for path in USERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    used = used_names()
    dead = sorted(name for name in public_names() if name.rsplit(".", 1)[1] not in used)
    assert dead == []


def test_the_surface_is_found():
    # guards the guard: a parse that found nothing would pass above
    names = public_names()
    assert {"var.estimate_var", "bootstrap.ModelSpec", "dgp.DgpSpec.from_dict"} <= names
    assert not any(name.rsplit(".", 1)[1].startswith("_") for name in names)
