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
    tree = ast.parse(Path(fkfront.__file__).read_text(encoding="utf-8"))
    reexports = [(node.module, alias.name) for node in tree.body
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names]
    assert reexports
    stray = [(module, name) for module, name in reexports
             if name not in importlib.import_module(f"fkfront.{module}").__all__]
    assert stray == []


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
