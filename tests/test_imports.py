"""No module of src/, tests/ or tools/ imports a name it never uses.

__future__ imports and package __init__ files (whose imports are
re-exports) are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str):
    """Names bound by an import statement that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_scanner_finds_an_unused_import():
    src = "import math\nfrom os import path, sep\nimport numpy.linalg\nprint(sep)\n"
    assert unused_imports(src) == [(1, "math"), (2, "path"), (3, "numpy")]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.getcwd()\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
