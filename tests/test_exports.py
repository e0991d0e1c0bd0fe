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


# (module, name) for each name in a module's __all__
PUBLIC = [(module, name) for module in MODULES
          for name in importlib.import_module(f"fkfront.{module}").__all__]


@pytest.mark.parametrize("module, name", PUBLIC, ids=[f"{m}.{n}" for m, n in PUBLIC])
def test_public_name_has_one_home(module, name):
    # only one module lists the name, and a function or class it lists is
    # defined there, not imported from another module
    assert [home for home, listed in PUBLIC if listed == name] == [module]
    value = getattr(importlib.import_module(f"fkfront.{module}"), name)
    if callable(value):
        assert value.__module__ == f"fkfront.{module}"


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


def imported_names(module):
    """Dotted name of each module or package that ``fkfront/<module>.py`` imports,
    a relative import resolved against ``fkfront``."""
    path = Path(fkfront.__path__[0]) / f"{module}.py"
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module
        elif isinstance(node, ast.ImportFrom):
            package = ".".join(["fkfront", *filter(None, [node.module])])
            yield package
            yield from (f"{package}.{alias.name}" for alias in node.names)


# imported module -> the only modules of the package that may import it
LAYERS = {
    "ctypes": ["lapack"],  # the LAPACK binding
    "fkfront.config": ["cli"],  # the INI reader; the library's rules live in domain
}


@pytest.mark.parametrize("imported", LAYERS)
def test_module_is_imported_only_by_its_layer(imported):
    importers = sorted({module for module in ["__init__", *MODULES]
                        for name in imported_names(module)
                        if name == imported or name.startswith(f"{imported}.")})
    assert importers == LAYERS[imported]


def test_package_root_is_its_docstring_alone():
    tree = ast.parse((Path(fkfront.__path__[0]) / "__init__.py").read_text(encoding="utf-8"))
    assert ast.get_docstring(tree) and len(tree.body) == 1
