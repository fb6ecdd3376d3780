"""Every exported name exists, the package root binds no public name, the
package root, cli, `version` and `oracle` load neither numpy nor scipy, and cli
leaves the tree oracle unloaded."""
import importlib
import pkgutil
import subprocess
import sys
import types

import pytest

import insider_hedge

MODULES = [importlib.import_module(f"insider_hedge.{info.name}")
           for info in pkgutil.iter_modules(insider_hedge.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes {missing}"


def test_package_root_binds_no_public_name():
    # importing a submodule binds it on the package; nothing else may be bound there
    public = [name for name, value in vars(insider_hedge).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)]
    assert public == []


@pytest.mark.parametrize("code", [
    "import insider_hedge",
    "import insider_hedge.cli",
    "from insider_hedge.cli import main; main(['version'])",
    "from insider_hedge.cli import main; main(['oracle', '--instances', '1'])",
], ids=["package", "cli", "version", "oracle"])
def test_loads_neither_numpy_nor_scipy(code):
    probe = f"{code}\nimport sys\nprint(sorted({{'numpy', 'scipy'}} & set(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


def test_cli_leaves_the_oracle_unloaded():
    # the Monte Carlo commands do not compile tree_oracle; run_oracle_suite imports it
    probe = ("import sys\nimport insider_hedge.cli\n"
             "print('insider_hedge.tree_oracle' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
