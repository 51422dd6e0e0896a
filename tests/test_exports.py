"""The package's shape: its exports, its import graph and its immutable values.

Every name in a module's ``__all__`` exists, the package re-exports
exactly those names, each library module imports only the siblings
below it, and matrices, series and check results refuse assignment.
"""

import ast
import importlib
import pkgutil
import types
from pathlib import Path

import pytest

import lambdaeq

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(lambdaeq.__path__)
    if hasattr(importlib.import_module("lambdaeq." + info.name), "__all__")
)


def test_the_library_modules_declare_their_exports():
    assert MODULES == ["arith", "bpoly", "modeq", "ode", "qseries"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists_and_imports_from_the_package(name):
    module = importlib.import_module("lambdaeq." + name)
    missing = [export for export in module.__all__ if not hasattr(module, export)]
    assert missing == []
    stale = [
        export
        for export in module.__all__
        if getattr(lambdaeq, export, None) is not getattr(module, export)
    ]
    assert stale == []


def test_the_package_exports_exactly_the_modules_names():
    exported = {
        name
        for name, value in vars(lambdaeq).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    declared = {
        export for name in MODULES for export in importlib.import_module("lambdaeq." + name).__all__
    }
    assert exported == declared


def test_the_library_keeps_no_memo():
    # no functools cache: every call recomputes, and no state outlives a call
    modules = [
        importlib.import_module("lambdaeq." + info.name)
        for info in pkgutil.iter_modules(lambdaeq.__path__)
    ]
    memos = [
        "%s.%s" % (module.__name__, name)
        for module in [lambdaeq, *modules]
        for name, value in vars(module).items()
        if hasattr(value, "cache_clear")
    ]
    assert memos == []


# the sibling modules each library module may import: arith is the base,
# bpoly and qseries build on it alone, modeq on all three, ode on the ring
IMPORTS = {
    "arith": set(),
    "bpoly": {"arith"},
    "qseries": {"arith"},
    "modeq": {"arith", "bpoly", "qseries"},
    "ode": {"qseries"},
}


def _sibling_imports(name):
    """The package modules that module ``name`` imports, relatively or as lambdaeq.*."""
    tree = ast.parse(Path(lambdaeq.__file__).with_name(name + ".py").read_text())
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            siblings.update([node.module] if node.module else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [node.module] if isinstance(node, ast.ImportFrom) else [
                alias.name for alias in node.names
            ]
            siblings.update(module[9:] for module in modules if module.startswith("lambdaeq."))
    return {sibling.split(".")[0] for sibling in siblings}


def test_every_library_module_has_a_place_in_the_import_graph():
    assert sorted(IMPORTS) == MODULES


@pytest.mark.parametrize("name", sorted(IMPORTS))
def test_the_import_graph(name):
    assert _sibling_imports(name) == IMPORTS[name]


def test_nothing_imports_the_cli():
    names = [info.name for info in pkgutil.iter_modules(lambdaeq.__path__)] + ["__init__"]
    assert [name for name in names if "cli" in _sibling_imports(name)] == []


def _immutables():
    from lambdaeq import CheckResult, Series, assemble

    matrix = assemble(5)
    return {
        "ModularMatrix": (matrix, "entries"),
        "PrimeParams": (matrix.params, "m"),
        "CheckResult": (CheckResult("symmetry", True, {}), "passed"),
        "Series": (Series([1, 2, 3]), "order"),
    }


@pytest.mark.parametrize("name", ["ModularMatrix", "PrimeParams", "CheckResult", "Series"])
def test_matrices_series_and_check_results_refuse_attribute_assignment(name):
    value, field = _immutables()[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        setattr(value, "extra", 1)
    assert getattr(value, field) == before


def test_check_details_are_a_fresh_dict_per_call():
    from lambdaeq import assemble, verify_symmetry

    matrix = assemble(5)
    first, second = verify_symmetry(matrix), verify_symmetry(matrix)
    assert first.details == second.details and first.details is not second.details
