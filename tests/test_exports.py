"""Package surface: every module's ``__all__`` names something that exists,
the package exports exactly the names the modules list in their
``__all__``, each as its module's own object, no module imports a name it
does not use and every private module-level name is used somewhere in the
package. Value types that hold arrays compare and hash by identity. What importing the package, a submodule or a CLI command loads is
checked in fresh interpreters."""

import ast
import copy
import importlib
import json
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

import ffcalc

BENCH = Path(__file__).resolve().parents[1] / "bench"

_MODULES = [
    importlib.import_module(f"ffcalc.{info.name}") for info in pkgutil.iter_modules(ffcalc.__path__)
]
_PUBLIC = {name for module in _MODULES for name in getattr(module, "__all__", ())}


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_exports_exactly_the_listed_names():
    ffcalc.FFCalcError  # the first access to one name binds them all
    exported = {
        name
        for name, value in vars(ffcalc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert sorted(exported - _PUBLIC) == []
    assert sorted(_PUBLIC - exported) == []
    assert sorted(ffcalc.__all__) == sorted(_PUBLIC)
    assert len(ffcalc.__all__) == len(_PUBLIC)  # each name once


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_each_exported_name_is_its_modules_own_object(module):
    for name in getattr(module, "__all__", ()):
        assert getattr(ffcalc, name) is getattr(module, name), name


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="^module 'ffcalc' has no attribute 'no_such_name'$"):
        ffcalc.no_such_name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from ffcalc import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(_PUBLIC)


@pytest.mark.parametrize("module", _MODULES, ids=lambda m: m.__name__)
def test_every_import_is_used(module):
    # pkgutil lists the submodules only, so the package __init__ is not among _MODULES
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


# -- what loading the package loads, each in a fresh interpreter ---------------


def _loaded_after(code: str, env, cwd) -> list:
    """The ffcalc modules loaded once ``code`` has run in a fresh interpreter."""
    code += (
        "\nimport json, sys\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'ffcalc')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_importing_the_package_loads_no_submodule(tmp_path, cli_env):
    assert _loaded_after("import ffcalc", cli_env, tmp_path) == ["ffcalc"]


def test_dir_and_an_unknown_name_load_nothing(tmp_path, cli_env):
    code = (
        "import ffcalc\n"
        "assert set(ffcalc.__all__) <= set(dir(ffcalc))\n"
        "assert not hasattr(ffcalc, 'no_such_name')\n"
    )
    assert _loaded_after(code, cli_env, tmp_path) == ["ffcalc"]


def test_a_submodule_name_loads_that_module_only(tmp_path, cli_env):
    code = "import ffcalc\nffcalc.fractal_curve\nfrom ffcalc import errors\n"
    loaded = _loaded_after(code, cli_env, tmp_path)
    assert loaded == ["ffcalc", "ffcalc._textio", "ffcalc.errors", "ffcalc.fractal_curve"]


def test_one_exported_name_loads_and_binds_them_all(tmp_path, cli_env):
    code = (
        "import ffcalc\n"
        "ffcalc.add\n"
        "missing = [n for n in ffcalc.__all__ if n not in vars(ffcalc)]\n"
        "assert not missing, missing\n"
    )
    loaded = _loaded_after(code, cli_env, tmp_path)
    exporting = {module.__name__ for module in _MODULES if hasattr(module, "__all__")}
    assert exporting <= set(loaded) and "ffcalc.cli" not in loaded


# the layers a command does not use, and must not load
_ABOVE_CURVES = {"fuzzy_core", "fractal_calc", "fuzzy_fractal_calc", "ffde", "problems"}
_CALCULUS = {"fractal_calc", "fuzzy_fractal_calc"}
_UNUSED = {
    ("dim", "--level", "4"): _ABOVE_CURVES,
    ("staircase", "--level", "3"): _ABOVE_CURVES,
    ("curve", "--level", "2"): _ABOVE_CURVES,
    ("solve", "--builtin", "example1"): _CALCULUS,
    ("verify", "--builtin", "example2"): _CALCULUS,
}


@pytest.mark.parametrize("argv", _UNUSED, ids=lambda argv: argv[0])
def test_a_command_loads_only_the_layers_it_uses(tmp_path, cli_env, argv):
    code = f"from ffcalc.cli import main\nassert main({list(argv)!r}) == 0\n"
    loaded = _loaded_after(code, cli_env, tmp_path)
    assert "ffcalc.fractal_curve" in loaded
    assert sorted(f"ffcalc.{name}" for name in _UNUSED[argv] if f"ffcalc.{name}" in loaded) == []


def test_tracing_leaves_the_package_bindings_alone(tmp_path, cli_env):
    # the benchmark's order: import, install the tracer while nothing is
    # loaded, build the workload (the first access loads and binds every
    # name), uninstall; then a traced cycle installs the tracer again, uses
    # a name for the first time, and uninstalls
    code = f"""
import sys
sys.path.insert(0, {str(BENCH)!r})
import ffcalc
from spans import Tracer

tracer = Tracer()
tracer.install()
x = ffcalc.make_triangular(0.0, 1.0, 2.0)
tracer.uninstall()
assert tracer.spans == [], "a wrapper was installed before its module loaded"

def arith_spans():
    return sum(1 for s in tracer.spans if s[0] == "fuzzy_core.arith")

tracer.install()
ffcalc.scale(2.0, x)
tracer.uninstall()
assert arith_spans() == 1, tracer.spans

modules = [m for n, m in list(sys.modules.items()) if n.startswith("ffcalc.") and hasattr(m, "__all__")]
package = vars(ffcalc)
wrong = [n for m in modules for n in m.__all__ if package.get(n, getattr(m, n)) is not getattr(m, n)]
assert not wrong, wrong
assert sorted(n for m in modules for n in m.__all__) == sorted(ffcalc.__all__)
assert sorted(n for n in ffcalc.__all__ if n not in package) == []
ffcalc.scale(2.0, x)
assert arith_spans() == 1, "an untraced call recorded a span"
"""
    _loaded_after(code, cli_env, tmp_path)


# a field-wise __eq__ would compare arrays, and raise on any two distinct
# objects; these types compare and hash by identity, as FuzzyNumber does
VALUE_TYPES = {
    "FractalCurve": lambda: ffcalc.generate_koch(1),
    "StaircaseTable": lambda: ffcalc.build_staircase(ffcalc.generate_koch(1), 1.0),
    "CrispTrajectory": lambda: ffcalc.solve_crisp_in_J(lambda j, y: -y, [1.0], (0.0, 1.0), 16),
    "FuzzySolution": lambda: ffcalc.solve_first_order(ffcalc.example1_problem(j_steps=16)),
    "SecondOrderSolution": lambda: ffcalc.solve_second_order_bvp(ffcalc.example2_bvp(steps=16)),
    "ContinuityProbe": lambda: ffcalc.ff_continuity_probe(
        ffcalc.crisp_embedding(np.sin, (0.0, 1.0)), 0.5, [0.1, 0.01]
    ),
}


@pytest.mark.parametrize("name", sorted(VALUE_TYPES))
def test_value_types_compare_by_identity(name):
    x = VALUE_TYPES[name]()
    twin = copy.copy(x)
    assert type(x).__name__ == name and twin is not x
    assert x == x and not x != x
    assert x != twin and not x == twin
    assert hash(x) == hash(x) and len({x, twin}) == 2
