"""Package surface: every module's ``__all__`` names something that exists,
and the package exports nothing a module does not list in its ``__all__``."""

import importlib
import pkgutil
import types

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
