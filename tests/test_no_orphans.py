"""Every function, method and class of the package has a reader: its name
occurs somewhere in the repository's Python files besides its own `def`.
The scalar oracles of the tests stay independent of the package and are
all read by a test."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src", "tests", "demos", "perfbench")
ORACLES = ROOT / "tests" / "oracles.py"


def _words(paths):
    words = Counter()
    for path in paths:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    return words


def _definitions(path, nested=True):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        node.name
        for node in (ast.walk(tree) if nested else tree.body)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def test_every_definition_is_named_outside_its_def():
    words = _words(path for top in READERS for path in (ROOT / top).rglob("*.py"))
    defs = Counter(name for path in (ROOT / "src" / "scheme_forge").glob("*.py") for name in _definitions(path))
    assert defs
    orphans = sorted(name for name, count in defs.items() if words[name] <= count)
    assert orphans == []


def test_oracles_import_only_the_field_from_the_package():
    """An oracle that ran a kernel could not check it."""
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [node.module or ""] + [f"{node.module}.{alias.name}" for alias in node.names]
    assert [m for m in imported if m.startswith("scheme_forge") and m != "scheme_forge.gf"
            and not m.startswith("scheme_forge.gf.")] == []


def test_every_oracle_is_read_by_a_test():
    """A public oracle is named in a test module, a private one by another
    oracle, so no dead library code turns into dead oracle code."""
    in_tests = _words((ROOT / "tests").glob("test_*.py"))
    in_oracles = _words([ORACLES])
    defs = Counter(_definitions(ORACLES, nested=False))
    assert defs
    unread = sorted(
        name for name, count in defs.items()
        if (in_oracles[name] <= count if name.startswith("_") else in_tests[name] == 0)
    )
    assert unread == []
