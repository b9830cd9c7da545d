"""Every name a module imports is used.

No linter runs on this package, so this walks each module's syntax tree
and fails on an imported name that the module never reads. Package
``__init__`` files are exempt: their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

import dualreg

MODULES = sorted(p for p in Path(dualreg.__file__).parent.rglob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in loaded)


def test_the_walk_sees_every_module():
    assert {p.name for p in MODULES} >= {"cli.py", "network.py", "ops.py"}


def test_unused_imports_are_found():
    assert unused_imports("import os\nfrom a.b import c as d, e\nprint(e)\n") == \
        ["d (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.relative_to(Path(dualreg.__file__).parent).as_posix())
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


# The program's callers: the package itself, the benchmark, and the release gate.
ROOT = Path(dualreg.__file__).resolve().parents[2]
CALLERS = (sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
           + [ROOT / "tests" / "test_acceptance.py"])


def public_definitions(source: str) -> set:
    """Functions, classes and names a module defines at top level, minus '_' ones."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return {n for n in names if not n.startswith("_")}


def references(source: str) -> set:
    """Names a module reads, bare (``f``) or as an attribute (``mod.f``)."""
    tree = ast.parse(source)
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def test_definitions_and_references_are_found():
    src = "import m\nX = 1\n_y = 2\ndef f():\n    return m.g(X)\nclass C:\n    pass\n"
    assert public_definitions(src) == {"X", "f", "C"}
    assert references(src) == {"m", "g", "X"}


def test_every_public_name_has_a_caller():
    """A public module-level name of the package is read somewhere in the
    package, the benchmark or the acceptance gate: a name that only unit
    tests read is code kept alive for them alone. A definition, an import
    or an ``__all__`` entry is not a read.

    Methods, input forms and parameters are out of this walk's reach. It
    collects top-level definitions only, and it matches reads by name, so
    ``obj.f`` counts as a read of every ``f``."""
    read = set().union(*(references(p.read_text(encoding="utf-8")) for p in CALLERS))
    unread = sorted(f"{p.relative_to(ROOT / 'src').as_posix()}: {name}" for p in MODULES
                    for name in public_definitions(p.read_text(encoding="utf-8")) - read)
    assert unread == []
