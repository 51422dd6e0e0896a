"""Every name in a module's ``__all__`` exists and is re-exported by the package."""

import importlib
import pkgutil

import pytest

import lambdaeq

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(lambdaeq.__path__)
    if hasattr(importlib.import_module("lambdaeq." + info.name), "__all__")
)


def test_the_library_modules_declare_their_exports():
    assert MODULES == ["arith", "bpoly", "exact", "modeq", "ode", "partitions", "qseries"]


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
