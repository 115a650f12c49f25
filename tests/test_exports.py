import importlib
import pkgutil

import pytest

import lorenzlab

# __main__ is the command-line entry point, not a library module
MODULES = sorted(
    info.name for info in pkgutil.iter_modules(lorenzlab.__path__) if info.name != "__main__"
)


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(f"lorenzlab.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []
