"""The export lists and docstring cross-references name only what is defined."""

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import fkfront

MODULES = sorted(info.name for info in pkgutil.iter_modules(fkfront.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_is_defined(name):
    module = importlib.import_module(f"fkfront.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_reexports_only_names_in_their_module_all():
    # the package's name -> submodule table, which its __getattr__ resolves
    reexports = list(fkfront._EXPORTS.items())
    assert reexports
    assert fkfront.__all__ == [name for name, _ in reexports]
    stray = [(module, name) for name, module in reexports
             if name not in importlib.import_module(f"fkfront.{module}").__all__]
    assert stray == []


@pytest.mark.parametrize("name", fkfront.__all__)
def test_package_name_resolves_to_its_module_object(name):
    module = importlib.import_module(f"fkfront.{fkfront._EXPORTS[name]}")
    assert getattr(fkfront, name) is getattr(module, name)
    assert name in dir(fkfront)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from fkfront import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(fkfront.__all__)


def test_unknown_package_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'fkfront' has no attribute 'no_such_name'"):
        fkfront.no_such_name
    assert not hasattr(fkfront, "_no_such_private")


ROLE = re.compile(r":(?:func|class|meth):`~?([\w.]+)`")


def references(node, cls=None):
    """``(target, class name)`` for each role in the docstrings under ``node``;
    the class is the one the docstring belongs to or sits in, if any."""
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        for target in ROLE.findall(ast.get_docstring(node) or ""):
            yield target, cls
    for child in ast.iter_child_nodes(node):
        yield from references(child, cls)


def resolves(module, target, cls):
    """Whether ``target`` names an object: a dotted path from ``fkfront``, a
    name (or ``Class.attr``) in ``module``, or an attribute of class ``cls``."""
    owner, path = module, target.split(".")
    if path[0] == "fkfront":
        owner, path = importlib.import_module(".".join(path[:2])), path[2:]
    elif not hasattr(module, path[0]) and cls is not None:
        owner = getattr(module, cls)
    for part in path:
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return True


def test_docstring_cross_references_resolve():
    checked, unresolved = 0, []
    for name in ["fkfront", *(f"fkfront.{module}" for module in MODULES)]:
        module = importlib.import_module(name)
        tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
        for target, cls in references(tree):
            checked += 1
            if not resolves(module, target, cls):
                unresolved.append(f"{name}: {target}")
    assert checked and unresolved == []


README_REFERENCE = re.compile(r"`(?:fkfront\.)?(\w+)\.(\w+)`")


def test_readme_references_resolve():
    # `[fkfront.]<module>.<name>` in README.md must name a defined object
    readme = Path(__file__).resolve().parents[1] / "README.md"
    found = [(module, name) for module, name in
             README_REFERENCE.findall(readme.read_text(encoding="utf-8")) if module in MODULES]
    unresolved = [f"{module}.{name}" for module, name in found
                  if not hasattr(importlib.import_module(f"fkfront.{module}"), name)]
    assert found and unresolved == []


def test_only_the_lapack_binding_imports_ctypes():
    importers = []
    for module in ["__init__", *MODULES]:
        path = Path(fkfront.__path__[0]) / f"{module}.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(name.split(".")[0] == "ctypes" for name in names):
                importers.append(module)
    assert sorted(set(importers)) == ["lapack"]
