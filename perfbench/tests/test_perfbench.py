"""The benchmark's own tests, at smoke size.

    python3 -m pytest perfbench/tests -q

Run from the root of a lorenzlab source checkout.  Every workload runs at a
tiny size, traced, twice with the same seed.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from harness import WORKLOADS, check_rep, end_to_end, run_workload, spawn_worker  # noqa: E402
from run import UNITS  # noqa: E402
from tracer import FAIL_REASONS, ROOT as ROOT_SPAN, Tracer, layer_metrics  # noqa: E402

SEED = 20240901


def _benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def smoke_runs():
    """Two traced smoke runs of every workload with the same seed."""
    return {
        name: [run_workload(ROOT, name, SEED, 0.1, size="smoke", trace=True) for _ in range(2)]
        for name in sorted(WORKLOADS)
    }


def _layers(result):
    return layer_metrics(result.trace, end_to_end(result)["wall_s"][1])


def test_every_metric_is_emitted_with_its_unit(smoke_runs):
    bench = _benchmark_json()
    want_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    want_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    for name, runs in smoke_runs.items():
        for result in runs:
            assert result.failed == 0, (name, [r["problems"] for r in result.reps])
            assert {k: UNITS[k] for k in end_to_end(result)} == want_e2e
            assert {k: unit for k, (value, unit) in _layers(result).items()} == want_layer


def test_traced_self_times_account_for_traced_wall(smoke_runs):
    for name, runs in smoke_runs.items():
        trace = runs[0].trace
        traced_rep = next(r for r in runs[0].reps if r["traced"])
        root_busy = trace["busy"][ROOT_SPAN]
        # set-up calls (config validation) run before the root span opens
        outside = sum(t for parent, child, t in trace["edges"] if parent is None and child != ROOT_SPAN)
        assert sum(trace["self"].values()) - outside == pytest.approx(root_busy, rel=1e-9), name
        assert root_busy == pytest.approx(traced_rep["wall_s"], rel=0.02), name
        assert all(t >= -1e-9 for t in trace["self"].values()), name


def test_counts_repeat_exactly(smoke_runs):
    for name, (a, b) in smoke_runs.items():
        first, second = _layers(a), _layers(b)
        counts = {k for k, (_, unit) in first.items() if unit in ("count", "bytes", "bits")}
        assert counts
        assert {k: first[k] for k in counts} == {k: second[k] for k in counts}, name
        assert a.trace["counters"].get("inducing.verify.fail.unclassified", 0) == 0


def test_workloads_reach_their_layers(smoke_runs):
    def layer(name):
        return _layers(smoke_runs[name][0])

    assert layer("density-noisy")["transfer.birkhoff.steps"][0] > 0
    assert layer("inducing-tail")["inducing.verify.calls"][0] > 0
    assert layer("nice-set")["inducing.mp.bits"][0] > 0
    assert layer("lab-desk")["recurrence.scan.steps"][0] > 0
    for sub, _ in WORKLOADS["lab-desk"].smoke:
        assert layer("lab-desk")[f"cli.{sub}.busy_s"][0] > 0


def test_failure_reasons_match_the_library_messages():
    with open(os.path.join(ROOT, "src", "lorenzlab", "inducing.py"), encoding="utf-8") as fh:
        source = fh.read()
    for needle in FAIL_REASONS.values():
        assert needle in source


def test_every_lookup_name_is_wrapped():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from lorenzlab import cli, expansion, inducing, maps, recurrence

    originals = (inducing.verify_markov_time, recurrence.pullback_component, cli.build_nice_set)
    tracer = Tracer("test").install()
    try:
        for owner, attr in ((inducing, "verify_markov_time"), (recurrence, "pullback_component"),
                            (inducing, "pullback_component"), (expansion, "pullback_component"),
                            (inducing, "build_nice_set"), (cli, "build_nice_set"), (maps, "brentq")):
            assert hasattr(getattr(owner, attr), "__wrapped__"), (owner.__name__, attr)
        assert hasattr(cli.SUBCOMMANDS["nice-set"], "__wrapped__")
    finally:
        tracer.uninstall()
    assert (inducing.verify_markov_time, recurrence.pullback_component, cli.build_nice_set) == originals


def test_reference_mismatch_is_a_failure(tmp_path):
    workload = WORKLOADS["nice-set"]
    report = spawn_worker(ROOT, str(tmp_path), "nice-set", SEED, "smoke")
    problems, record = check_rep(workload, "smoke", SEED, report, str(tmp_path), {}, None)
    assert problems == [] and record["digests"]
    wrong = {"digests": dict(record["digests"], **{"0-nice-set/nice_set.csv": "0" * 64}),
             "nice_set_violations": record["nice_set_violations"]}
    refs = {"nice-set": {"smoke": {"spec_hash": workload.spec_hash("smoke"), "seeds": {str(SEED): wrong}}}}
    problems, _ = check_rep(workload, "smoke", SEED, report, str(tmp_path), refs, None)
    assert problems == ["digests differs from the pinned reference"]


def test_run_fails_without_the_source_tree(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nice-set", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
