"""Every exported name resolves: each module's `__all__`, and every name
that the package `__init__` imports from its modules. And every exported
name has a caller in the package or is traced by the benchmark, every
public member of a public class (method, property or classmethod) is read
as an attribute somewhere in the package, and every defaulted parameter of
a module-level function is passed by some call in the package."""

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


def _package_sources() -> dict:
    """The parsed source of each package module, by module name."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in Path(staircover.__file__).parent.glob("*.py")
    }


def test_every_export_has_a_caller():
    sources = _package_sources()
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


def test_every_public_member_has_a_caller():
    """Every public method, property or classmethod of a public class in
    the package is read as an attribute somewhere in the package, outside
    the body of a member of the same name (which may delegate to it).

    The match is by name alone, as for `__all__`: a member whose name is
    read off some other class counts as called, so this cannot flag one of
    two same-named members (an `area` or an `of`) when only the other has
    callers."""
    sources = _package_sources()
    read = set()

    def collect(node, inside=None):
        if isinstance(node, ast.Attribute) and node.attr != inside:
            read.add(node.attr)
        if isinstance(node, ast.FunctionDef):
            inside = node.name
        for child in ast.iter_child_nodes(node):
            collect(child, inside)

    for tree in sources.values():
        collect(tree)
    uncalled = [
        f"{cls.name}.{member.name}"
        for stem in sorted(sources)
        for cls in sources[stem].body
        if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
        for member in cls.body
        if isinstance(member, ast.FunctionDef)
        and not member.name.startswith("_")
        and member.name not in read
    ]
    assert not uncalled, f"public members without a caller in staircover: {uncalled}"


def _defaulted_params(fn: ast.FunctionDef) -> list[tuple[int | None, str]]:
    """(position or None for keyword-only, name) of each parameter with a
    default value."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(i, positional[i].arg) for i in range(first, len(positional))]
    out += [
        (None, arg.arg)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]
    return out


def _unused_defaults(sources: dict) -> list[str]:
    """`stem.function.param` of each defaulted parameter of a module-level
    function that no call in `sources` passes, by position or by keyword.

    A call counts for the function `name` of module `stem` only when it is
    a bare call to `name` in `stem` itself or in a module that imported
    `name` from `stem`, or a call of `<module>.name` on a `from . import
    stem` binding. Any other `x.name(...)` is a method call and counts for
    no module function, so a method cannot stand in for a function of the
    same name."""
    passed = {}  # (stem, function name) -> (most positional arguments, keywords)
    for here, tree in sources.items():
        names, modules = {}, {}  # local name -> (stem, name), local name -> stem
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module is None:
                        modules[local] = alias.name
                    else:
                        names[local] = (node.module, alias.name)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            if isinstance(func, ast.Name):
                target = names.get(func.id, (here, func.id))
            elif isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in modules:
                target = (modules[func.value.id], func.attr)
            else:
                continue
            most, keywords = passed.get(target, (0, set()))
            keywords = keywords | {kw.arg for kw in call.keywords}
            passed[target] = (max(most, len(call.args)), keywords)

    def overridden(stem, name, position, param) -> bool:
        most, keywords = passed.get((stem, name), (0, set()))
        return param in keywords or (position is not None and position < most)

    return [
        f"{stem}.{fn.name}.{param}"
        for stem, tree in sorted(sources.items())
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        for position, param in _defaulted_params(fn)
        if (stem, fn.name, param) != ("cli", "main", "argv")
        and not overridden(stem, fn.name, position, param)
    ]


def test_every_default_is_overridden_by_some_caller():
    """A defaulted parameter that no call in the package passes is an
    option nothing uses."""
    unused = _unused_defaults(_package_sources())
    assert not unused, f"defaulted parameters that no call in staircover passes: {unused}"


def test_default_census_tells_a_method_from_a_function():
    """A method call passes nothing to the module function of the same
    name; a call through an imported name or module binding does."""
    scan = """
def min_depth(corners, *, certify=None):
    return Frame().min_depth(certify=certify)

class Frame:
    def min_depth(self, *, certify=None):
        return 0
"""
    sources = {
        "scan": ast.parse(scan),
        "user": ast.parse("from . import scan\nscan.Frame().min_depth(certify=1)\n"),
    }
    assert _unused_defaults(sources) == ["scan.min_depth.certify"]
    for caller in ("from .scan import min_depth\nmin_depth([], certify=1)\n",
                   "from .scan import min_depth as md\nmd([], certify=1)\n",
                   "from . import scan\nscan.min_depth([], certify=1)\n"):
        assert _unused_defaults({**sources, "user": ast.parse(caller)}) == [], caller


def test_no_module_uses_a_private_name_of_another():
    """No package module imports an underscore name from another, or reads
    one off a package module it imported."""
    allowed = set()
    used = set()
    for path in Path(staircover.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}  # local name -> package module bound by `from . import`
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        used.add((path.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                used.add((path.stem, modules[node.value.id], node.attr))
    assert not used - allowed, f"private names used across modules: {sorted(used - allowed)}"
