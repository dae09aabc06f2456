"""Package surface: every module's ``__all__`` names something that exists,
the package exports nothing a module does not list in its ``__all__``, and
no module imports a name it does not use."""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import ffcalc

_MODULES = [
    importlib.import_module(f"ffcalc.{info.name}") for info in pkgutil.iter_modules(ffcalc.__path__)
]
_PUBLIC = {name for module in _MODULES for name in getattr(module, "__all__", ())}


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_exports_only_listed_names():
    exported = {
        name
        for name, value in vars(ffcalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert exported - _PUBLIC == set()


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_import_is_used(module):
    # the package __init__ imports only to re-export, so it is not among _MODULES
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used - set(getattr(module, "__all__", ()))) == []
