"""No module of src/, tests/ or tools/ imports a name it never uses, no
top-level name of src/ goes unreferenced, none lives for tests alone unless
it is allowed with a reason, and every name that tools/ and perfbench/
import from zetalab exists (tier-1 runs neither of them whole).

__future__ imports and package __init__ files (whose imports are
re-exports) are exempt from the first scan, dunder names from the second.
"""

import ast
import importlib
import importlib.util
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


def _identifiers(node):
    """Every name, attribute, imported name and string constant under node."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.split(".")[-1]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def _defined(stmt):
    """Top-level names a module statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def unreferenced_names(modules, others):
    """(module, name) of each top-level name of modules that no statement
    but its own definition mentions, in modules or others (path -> source)."""
    uses, defs = {}, []
    for path, source in {**modules, **others}.items():
        for i, stmt in enumerate(ast.parse(source).body):
            where = (path, i)
            for name in _identifiers(stmt):
                uses.setdefault(name, set()).add(where)
            if path in modules:
                defs += [(path, name, where) for name in _defined(stmt)]
    return sorted(
        (path, name) for path, name, where in defs
        if not (name.startswith("__") and name.endswith("__")) and not uses.get(name, set()) - {where}
    )


def test_scanner_finds_an_unreferenced_name():
    mod = "def used():\n    pass\n\ndef dead():\n    return dead()\n\nX = 1\n__all__ = []\n"
    assert unreferenced_names({"m": mod}, {"t": "used()\ngetattr(m, 'X')\n"}) == [("m", "dead")]


def _sources(*dirs):
    """path -> source of every .py file under the given top-level directories."""
    return {str(p.relative_to(ROOT)): p.read_text() for d in dirs for p in sorted((ROOT / d).rglob("*.py"))}


def test_every_top_level_src_name_is_referenced():
    assert unreferenced_names(_sources("src"), _sources("tests", "tools", "perfbench")) == []


# The top-level names of src/ that only tests reference, each with the reason it stays.
TEST_ONLY = {
    ("src/zetalab/zkernel.py", "EM_TRUNCATION"):
        "the tolerance under which test_em_terms_from_backlund_bound re-derives EM_TERMS",
}


def test_no_src_name_lives_for_tests_alone():
    """Every top-level name of src/ is referenced from src/, tools/ or
    perfbench/, or is listed in TEST_ONLY with its reason.

    The scan sees direct references only.  Code that a tool reaches only to
    write fixtures for that code's own tests (as tools/make_fixtures.py once
    did for the gamma factor R(y)) still passes it.
    """
    assert unreferenced_names(_sources("src"), _sources("tools", "perfbench")) == sorted(TEST_ONLY)


def missing_zetalab_names(source: str):
    """(line, module, name) of each name a `from zetalab... import` statement
    asks for that the module neither defines nor has as a submodule."""
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "zetalab":
            module = importlib.import_module(node.module)
            for alias in node.names:
                submodule = hasattr(module, "__path__") and importlib.util.find_spec(
                    node.module + "." + alias.name)
                if not (hasattr(module, alias.name) or submodule):
                    missing.append((node.lineno, node.module, alias.name))
    return missing


def test_scanner_finds_a_missing_zetalab_name():
    src = "def f():\n    from zetalab.zkernel import z_block, zeta_em\n    from zetalab import cli, nope\n"
    assert missing_zetalab_names(src) == [(2, "zetalab.zkernel", "zeta_em"), (3, "zetalab", "nope")]


@pytest.mark.parametrize(
    "path", sorted(p for d in ("tools", "perfbench") for p in (ROOT / d).glob("*.py")),
    ids=lambda p: str(p.relative_to(ROOT)))
def test_tool_imports_from_zetalab_exist(path):
    assert missing_zetalab_names(path.read_text()) == []
