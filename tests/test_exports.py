import ast
import collections
import importlib
import importlib.util
import pathlib
import pkgutil
import re

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


def _load_benchmark_tracer():
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_tracer_installs():
    """The benchmark's tracer wraps library names; each must still exist."""
    tracer = _load_benchmark_tracer()
    before = dict(vars(lorenzlab.maps.PerturbedFamily))
    tracer.Tracer("test").install().uninstall()
    assert dict(vars(lorenzlab.maps.PerturbedFamily)) == before


def test_benchmark_tracer_counts_scan_steps():
    """The tracer reads ``horizon`` of a stopping scan that runs out by keyword."""
    tracer = _load_benchmark_tracer().Tracer("test").install()
    try:
        family = lorenzlab.maps.PerturbedFamily(lorenzlab.maps.CANON)
        stream = lorenzlab.noise.NoiseModel(eps=0.005, seed=7).stream(3)
        rec = lorenzlab.recurrence
        rec.landing_time(family, 0.25, stream, 0.009, horizon=3)
        rec.good_return_time(family, 0.25, stream, 0.009, 2.0, horizon=3)
        rec.good_return_or_expansion_time(family, 0.25, stream, 0.009, 2.0, 1.0, horizon=3, theta0=0.01)
    finally:
        tracer.uninstall()
    assert tracer.counters["recurrence.scan.calls"] == 3
    assert tracer.counters["recurrence.scan.steps"] > 0


def test_benchmark_tracer_counts_returns_scans(tmp_path):
    """``lorenzlab returns`` runs at least two traced stopping scans per sample, and they take steps."""
    cfg = lorenzlab.config.ExperimentConfig()
    cfg.ensemble.returns_samples = 3
    cfg.horizons.return_horizon = 300
    tracer = _load_benchmark_tracer().Tracer("test").install()
    try:
        lorenzlab.cli.run_returns(cfg, str(tmp_path))
    finally:
        tracer.uninstall()
    assert tracer.counters["recurrence.scan.calls"] >= 2 * 3
    assert tracer.counters["recurrence.scan.steps"] > 0


def _unread_parameters(path):
    """(line, function, parameter) for each parameter its function never reads."""
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id for stmt in body for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        for name in params:
            if name not in ("self", "cls") and name not in read:
                yield node.lineno, getattr(node, "name", "<lambda>"), name


def test_no_unread_parameters():
    """Every function and lambda in the package reads each of its parameters."""
    unread = [
        f"{path.name}:{line} {func}({name})"
        for path in sorted(pathlib.Path(lorenzlab.__file__).parent.glob("*.py"))
        for line, func, name in _unread_parameters(path)
    ]
    assert unread == []


def _public_definitions(path):
    """(line, name) of each module-level function or class, and each method, whose name has no leading underscore."""
    bodies = [ast.parse(path.read_text()).body]
    while bodies:
        for node in bodies.pop():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                yield node.lineno, node.name
            if isinstance(node, ast.ClassDef):
                bodies.append(node.body)


def test_every_public_name_has_a_reader():
    """Every public name of the package appears in the code of src/, perfbench/ or scripts/ besides its own definition line."""
    root = pathlib.Path(__file__).resolve().parents[1]
    words = collections.Counter(
        word
        for top in ("src", "perfbench", "scripts")
        for path in (root / top).rglob("*")
        if path.suffix in (".py", ".sh")
        for word in re.findall(r"\w+", path.read_text())
    )
    unread = []
    for path in sorted(pathlib.Path(lorenzlab.__file__).parent.glob("*.py")):
        lines = path.read_text().splitlines()
        for line, name in _public_definitions(path):
            if words[name] == re.findall(r"\w+", lines[line - 1]).count(name):
                unread.append(f"{path.name}:{line} {name}")
    assert unread == []


def test_benchmark_tracer_counts_pullback_steps():
    """The tracer reads ``s`` of ``pullback_component`` as its third positional argument."""
    family = lorenzlab.maps.PerturbedFamily(lorenzlab.maps.CANON)
    orbit = [0.27]
    for _ in range(6):
        orbit.append(lorenzlab.maps.CANON.eval(orbit[-1]))
    target = (orbit[6] - 0.01, orbit[6] + 0.01)
    tracer = _load_benchmark_tracer().Tracer("test").install()
    try:
        lorenzlab.recurrence.pullback_component(family, target, 6, guide_orbit=orbit[:6])
        res = lorenzlab.expansion.koebe_check(family, target, 6, guide_orbit=orbit[:6])
    finally:
        tracer.uninstall()
    assert res["applicable"]  # so koebe_check pulled back both T and its inner J
    assert tracer.calls["recurrence.pullback"] == 3
    assert tracer.counters["recurrence.pullback.steps"] == 3 * 6


def test_benchmark_tracer_counts_bc_components():
    """The tracer counts ``components_visited`` of a backward-contraction check, one per row."""
    tracer = _load_benchmark_tracer().Tracer("test").install()
    try:
        rep = lorenzlab.recurrence.backward_contraction_check(
            lorenzlab.maps.CANON, [0.0025], 2, sample_budget=10, seed=0
        )
    finally:
        tracer.uninstall()
    assert len(rep["rows"]) > 0
    assert tracer.calls["recurrence.bc_check"] == 1
    assert tracer.counters["recurrence.bc_check.components"] == len(rep["rows"])


def _calls_by_name(root):
    """Every call in the code of src/, perfbench/ and scripts/, test files not counted, by the name it calls."""
    calls = collections.defaultdict(list)
    for top in ("src", "perfbench", "scripts"):
        for path in (root / top).rglob("*.py"):
            if "tests" in path.relative_to(root).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Call):
                    calls[getattr(node.func, "id", None) or getattr(node.func, "attr", None)].append(node)
    return calls


def _defaulted_parameters(path):
    """(line, call name, positional index or None, parameter) of each parameter with a default.

    A method's positional index leaves out ``self`` or ``cls``, and calls of
    ``__init__`` go by the name of its class.
    """
    tree = ast.parse(path.read_text())
    owner = {
        id(node): cls for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef) for node in cls.body
    }
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = owner.get(id(node))
        bound = cls is not None and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        name = cls.name if cls is not None and node.name == "__init__" else node.name
        a = node.args
        positional = [*a.posonlyargs, *a.args]
        for p in positional[len(positional) - len(a.defaults):]:
            yield node.lineno, name, positional.index(p) - bound, p.arg
        for p, default in zip(a.kwonlyargs, a.kw_defaults):
            if default is not None:
                yield node.lineno, name, None, p.arg


def _leaves_out(call, index, param):
    """Whether a call passes the parameter neither by keyword nor by position, nor maybe through * or **."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(k.arg in (None, param) for k in call.keywords):
        return False
    return index is None or len(call.args) <= index


def test_every_default_is_relied_on():
    """Each parameter default in the package is left out by some call in src/, perfbench/ or scripts/."""
    root = pathlib.Path(__file__).resolve().parents[1]
    calls = _calls_by_name(root)
    unused = [
        f"{path.name}:{line} {name}({param})"
        for path in sorted(pathlib.Path(lorenzlab.__file__).parent.glob("*.py"))
        for line, name, index, param in _defaulted_parameters(path)
        if not any(_leaves_out(call, index, param) for call in calls[name])
    ]
    assert unused == []
