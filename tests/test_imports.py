"""Every name a module of src/quasisat imports is used in that module or
listed in its `__all__`: a stdlib AST scan, so that an import left behind
by a refactor fails the suite."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "quasisat"


def unused_imports(source: str) -> list[str]:
    """The imported names that no expression of the module reads, as
    'name (line n)'; `from __future__` imports do not count."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(e.value for e in node.value.elts)
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_the_scan_finds_unused_imports():
    source = ("from __future__ import annotations\nimport os, os.path\n"
              "from x import a, b as c\n__all__ = ['d']\nfrom y import d\n"
              "def f(v: a) -> None: pass\n")
    assert unused_imports(source) == ["c (line 3)", "os (line 2)"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
