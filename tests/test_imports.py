"""Every module-level import in the package is used (a linter's unused-import
rule, kept without a linter). ``__init__.py`` is left out: its imports are
the public re-exports. Every private (``_name``) function, class or method
defined in the package is referenced somewhere in the package, so a solver
whose last caller is deleted does not linger, and every public module-level
function or class is re-exported by ``__init__.py`` or referenced somewhere
else in the package, so no public name lacks a caller; every name in
``__all__`` is referenced outside ``__init__.py`` or named in backticks in
README.md, which lists the public names kept as API without an internal
caller. ``cli.py`` imports no private name from another module. Every search
setting, a field of ``OptimizerOptions`` or a defaulted parameter of a
function or method in ``search.py``, is passed at some call site in the package, so a knob that
no caller turns becomes a constant. The strings a result file writes for
infinite and NaN floats appear in ``cli.py`` only, so one module owns the
file format."""

import ast
import pathlib
import re

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


def _referenced(trees) -> set[str]:
    """The names that the trees read, look up as attributes or import."""
    used = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    return used


def _unreferenced_private(sources: list[str]) -> list[str]:
    trees = [ast.parse(src) for src in sources]
    defined = {node.name for tree in trees for node in ast.walk(tree)
               if isinstance(node, DEFS) and node.name.startswith("_")
               and not node.name.startswith("__")}
    return sorted(defined - _referenced(trees))


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


def _uncalled_public(init_src: str, sources: list[str]) -> list[str]:
    """The public module-level functions and classes of sources that
    init_src does not import and that no source references."""
    exported = {a.asname or a.name for a in ast.walk(ast.parse(init_src))
                if isinstance(a, ast.alias)}
    trees = [ast.parse(src) for src in sources]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, DEFS) and not node.name.startswith("_")}
    return sorted(defined - exported - _referenced(trees))


def test_detects_an_uncalled_public_definition():
    src = ("def dead(): pass\n"
           "def called(): pass\n"
           "def exported(): pass\n"
           "class Spec:\n"
           "    def method(self): return called()\n")
    init = "from .m import exported\n"
    assert _uncalled_public(init, [src]) == ["Spec", "dead"]
    assert _uncalled_public(init, [src, "from .m import dead\nx = m.Spec\n"]) == []


def test_every_public_definition_has_a_caller():
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    assert _uncalled_public(init, [p.read_text(encoding="utf-8") for p in MODULES]) == []


def _unused_exports(init_src: str, sources: list[str], readme: str) -> list[str]:
    """The names in init_src's ``__all__`` that no source references and
    that readme does not name in backticks."""
    exported = next(ast.literal_eval(node.value) for node in ast.parse(init_src).body
                    if isinstance(node, ast.Assign)
                    and [getattr(t, "id", None) for t in node.targets] == ["__all__"])
    named = set(re.findall(r"`([^`\n]+)`", readme))
    return sorted(set(exported) - _referenced(ast.parse(src) for src in sources) - named)


def test_detects_an_unused_export():
    init = 'from .m import a, b, c, d\n__all__ = ["a", "b", "c", "d"]\n'
    src = "def a(): pass\ndef b(): return a()\nclass c: pass\ndef d(): pass\n"
    readme = "- `c`: kept as API\n- `d(x)` is a call, not a name\n"
    assert _unused_exports(init, [src], readme) == ["b", "d"]
    assert _unused_exports(init, [src, "m.b\n"], readme + "- `d`\n") == []


def test_every_export_has_a_caller_or_a_readme_line():
    init = (PACKAGE / "__init__.py").read_text(encoding="utf-8")
    readme = (PACKAGE.parents[1] / "README.md").read_text(encoding="utf-8")
    assert _unused_exports(init, [p.read_text(encoding="utf-8") for p in MODULES], readme) == []


def _private_imports(source: str) -> list[str]:
    """The ``_``-prefixed names that source imports from a package module,
    by relative or ``explab`` import, with their lines."""
    return [f"{alias.name} (line {node.lineno})" for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "explab")
            for alias in node.names if alias.name.startswith("_")]


def test_detects_a_private_import():
    src = ("from __future__ import annotations\n"
           "from os import _exit\n"
           "from .simulate import GldConfig, _check\n"
           "from explab.prob import _tol as tol\n"
           "from . import _search\n")
    assert _private_imports(src) == ["_check (line 3)", "_tol (line 4)", "_search (line 5)"]


def test_cli_imports_no_private_name():
    assert _private_imports((PACKAGE / "cli.py").read_text(encoding="utf-8")) == []


def _settings(search_src: str, options_src: str) -> list[tuple[str, str, int | None]]:
    """(callable name, parameter, positional index or None) of every
    defaulted parameter in search_src and every OptimizerOptions field in
    options_src. Methods are called through an attribute, so self is not
    counted, and __init__ is called by its class name."""
    out = []

    def visit(node, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                pos = a.posonlyargs + a.args
                skip = 1 if cls is not None and pos and pos[0].arg in ("self", "cls") else 0
                name = cls if child.name == "__init__" else child.name
                first = len(pos) - len(a.defaults)
                out.extend((name, p.arg, i - skip) for i, p in enumerate(pos) if i >= first)
                out.extend((name, p.arg, None)
                           for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)
                visit(child)
            else:
                visit(child, cls)

    visit(ast.parse(search_src))
    for node in ast.walk(ast.parse(options_src)):
        if isinstance(node, ast.ClassDef) and node.name == "OptimizerOptions":
            fields = [f.target.id for f in node.body if isinstance(f, ast.AnnAssign)]
            out.extend(("OptimizerOptions", f, i) for i, f in enumerate(fields))
    return out


def _unpassed_settings(settings, sources: list[str]) -> list[str]:
    """The settings that no call in sources passes, by keyword or position."""
    calls: dict[str, list[tuple[int, set, bool]]] = {}
    for src in sources:
        for node in ast.walk(ast.parse(src)):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                star = any(isinstance(a, ast.Starred) for a in node.args)
                kws = {k.arg for k in node.keywords}
                calls.setdefault(name, []).append((len(node.args), kws, star or None in kws))
    return [f"{name}({param})" for name, param, index in settings
            if not any(param in kws or star or (index is not None and n > index)
                       for n, kws, star in calls.get(name, []))]


def test_detects_an_unpassed_setting():
    search = ("def f(x, step=1.0, *, tol=1e-9): pass\n"
              "class P:\n"
              "    def __init__(self, p, q=None): pass\n"
              "    def feasible(self, j, tol=1e-12): pass\n")
    options = ("class OptimizerOptions:\n"
               "    grid_step: float = 0.125\n"
               "    budget_cap: int = 2\n")
    settings = _settings(search, options)
    assert settings == [("f", "step", 1), ("f", "tol", None), ("P", "q", 1),
                        ("feasible", "tol", 1), ("OptimizerOptions", "grid_step", 0),
                        ("OptimizerOptions", "budget_cap", 1)]
    uses = "f(0, 2.0)\nP(1).feasible(j)\nOptimizerOptions(grid_step=0.5)\n"
    assert _unpassed_settings(settings, [uses]) == [
        "f(tol)", "P(q)", "feasible(tol)", "OptimizerOptions(budget_cap)"]
    uses = "f(0, tol=1)\nP(1, 2).feasible(j, 0)\nOptimizerOptions(0.5, 3)\n"
    assert _unpassed_settings(settings, [uses]) == ["f(step)"]


def test_every_search_setting_is_passed():
    settings = _settings((PACKAGE / "search.py").read_text(encoding="utf-8"),
                         (PACKAGE / "exponents.py").read_text(encoding="utf-8"))
    assert ("OptimizerOptions", "grid_step", 0) in settings
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert _unpassed_settings(settings, sources) == []


NON_FINITE = {"+inf", "-inf", "nan"}


def _non_finite_strings(source: str) -> list[int]:
    """Lines of the string constants that spell a non-finite float."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Constant) and node.value in NON_FINITE)


def test_detects_a_non_finite_string():
    src = 'x = "+inf" if a else "nan"\n"""a docstring that says -inf"""\ny = "-inf"\n'
    assert _non_finite_strings(src) == [1, 1, 3]


@pytest.mark.parametrize("path", [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "cli.py"],
                         ids=lambda p: p.name)
def test_non_finite_strings_only_in_cli(path):
    assert _non_finite_strings(path.read_text(encoding="utf-8")) == []
