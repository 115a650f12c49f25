import importlib
import importlib.util
import pathlib
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


def test_benchmark_tracer_installs():
    """The benchmark's tracer wraps library names; each must still exist."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    before = dict(vars(lorenzlab.maps.PerturbedFamily))
    tracer.Tracer("test").install().uninstall()
    assert dict(vars(lorenzlab.maps.PerturbedFamily)) == before
