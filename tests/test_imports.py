"""Every module-level import in the package is used (a linter's unused-import
rule, kept without a linter). ``__init__.py`` is left out: its imports are
the public re-exports. Every private (``_name``) function, class or method
defined in the package is referenced somewhere in the package, so a solver
whose last caller is deleted does not linger."""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "explab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_detects_an_unused_import():
    assert _unused_imports("import math\nfrom os import path, sep\nprint(sep)\n") == \
        ["math (line 1)", "path (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def _unreferenced_private(sources: list[str]) -> list[str]:
    trees = [ast.parse(src) for src in sources]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, DEFS) and node.name.startswith("_")
               and not node.name.startswith("__")}
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return sorted(defined - used)


def test_detects_an_unreferenced_private_definition():
    src = ("def _dead(): pass\n"
           "def _live(): pass\n"
           "class A:\n"
           "    def __init__(self): self._m()\n"
           "    def _m(self): return _live()\n"
           "    def _orphan(self): pass\n")
    assert _unreferenced_private([src]) == ["_dead", "_orphan"]
    assert _unreferenced_private([src, "from m import _dead\nA()._orphan()\n"]) == []


def test_no_unreferenced_private_definitions():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert _unreferenced_private(sources) == []
