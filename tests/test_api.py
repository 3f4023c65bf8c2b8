"""Every exported name resolves: each module's `__all__`, and every name
that the package `__init__` imports from its modules. And every exported
name has a caller in the package or is traced by the benchmark."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import staircover
from test_trace_hooks import _layer_spans

MODULES = sorted(m.name for m in pkgutil.iter_modules(staircover.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"staircover.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"staircover.{name}.__all__ names {missing}"


def test_package_imports_resolve():
    tree = ast.parse(Path(staircover.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"staircover.{node.module}")
        for alias in node.names:
            assert getattr(staircover, alias.name) is getattr(module, alias.name), alias.name


def test_every_export_has_a_caller():
    sources = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(staircover.__file__).parent.glob("*.py")
    }
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for stem, tree in sources.items()
        if stem != "__init__"
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    traced = set(_layer_spans())
    uncalled = [
        f"{stem}.{name}"
        for stem in sorted(sources)
        for name in getattr(importlib.import_module(f"staircover.{stem}"), "__all__", ())
        if name not in used and (stem, name) not in traced
    ]
    assert not uncalled, f"exported without a caller in staircover: {uncalled}"
