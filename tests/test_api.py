"""Every exported name resolves: each module's `__all__`, and every name
that the package `__init__` imports from its modules."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import staircover

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
