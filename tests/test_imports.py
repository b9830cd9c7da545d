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
