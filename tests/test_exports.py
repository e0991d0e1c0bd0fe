"""The export lists name only what their modules define."""

import ast
import importlib
import pkgutil
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
