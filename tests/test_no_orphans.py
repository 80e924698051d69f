"""Every function, method and class of the package has a reader: its name
occurs somewhere in the repository's Python files besides its own `def`."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src", "tests", "demos", "perfbench")


def test_every_definition_is_named_outside_its_def():
    words = Counter()
    for top in READERS:
        for path in (ROOT / top).rglob("*.py"):
            words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    defs = Counter()
    for path in (ROOT / "src" / "scheme_forge").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs[node.name] += 1
    assert defs
    orphans = sorted(name for name, count in defs.items() if words[name] <= count)
    assert orphans == []
