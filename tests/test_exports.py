"""Every exported name exists, and every public package name is exported by its module."""
import importlib
import pkgutil
import types

import pytest

import insider_hedge

MODULES = [importlib.import_module(f"insider_hedge.{info.name}")
           for info in pkgutil.iter_modules(insider_hedge.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes {missing}"


def test_package_names_are_exported():
    exported = set().union(*(module.__all__ for module in MODULES))
    public = {name for name, value in vars(insider_hedge).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public <= exported, f"not in any __all__: {sorted(public - exported)}"
