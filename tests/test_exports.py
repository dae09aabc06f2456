"""Package surface: every module's ``__all__`` names something that exists,
the package exports exactly the names the modules list in their
``__all__``, no module imports a name it does not use and every private
module-level name is used somewhere in the package."""

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


def test_package_exports_exactly_the_listed_names():
    exported = {
        name
        for name, value in vars(ffcalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported - _PUBLIC) == []
    assert sorted(_PUBLIC - exported) == []


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


def _private_definitions(tree) -> dict:
    """The module-level private names a module defines (functions, classes
    and assignment targets), each with the statements that define it."""
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined.setdefault(name, []).append(node)
    return defined


def test_every_private_name_is_used():
    # a use is a bare name or an attribute (module._name) anywhere in the
    # package outside the statements that define the name; an import alone
    # is not one, and test_every_import_is_used refuses unused imports
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in Path(ffcalc.__file__).parent.glob("*.py")]
    uses = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, set()).add(id(node))
    unused = []
    for tree in trees:
        for name, statements in _private_definitions(tree).items():
            own = {id(n) for s in statements for n in ast.walk(s)}
            if not uses.get(name, set()) - own:
                unused.append(name)
    assert sorted(unused) == []

