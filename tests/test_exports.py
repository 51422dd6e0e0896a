"""Every name in a module's ``__all__`` exists, and the package re-exports exactly those names."""

import importlib
import pkgutil
import types

import pytest

import lambdaeq

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(lambdaeq.__path__)
    if hasattr(importlib.import_module("lambdaeq." + info.name), "__all__")
)


def test_the_library_modules_declare_their_exports():
    assert MODULES == ["arith", "bpoly", "exact", "modeq", "ode", "qseries"]


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
