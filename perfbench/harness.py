"""Workload definitions, repetition loop, correctness checks and statistics.

A workload is a list of ``lorenzlab`` CLI subcommands with config overrides.
One repetition ("rep") runs the whole list in a fresh single-process
subprocess (:mod:`worker`) with BLAS pinned to one thread, so its peak RSS
belongs to that rep alone.  A run repeats reps until its time budget is
spent and reports medians; every rep's artifacts are checked against the
pinned references (``references.json``) and the seed-independent invariants.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
REFERENCES = os.path.join(HERE, "references.json")

CANONICAL_SEED = 20240901
HELD_OUT_SEED = 17
PINNED_SEEDS = (CANONICAL_SEED, HELD_OUT_SEED)

REP_TIMEOUT_S = 170
SETUP_PROBES = 2  # setup-only subprocesses per run, besides each rep's own set-up


@dataclass(frozen=True)
class Workload:
    """CLI subcommands run in order in one process, each with --set overrides."""

    name: str
    steps: tuple  # ((subcommand, {field: value}), ...)
    smoke: tuple  # the same subcommands at a tiny size, for the benchmark's own tests

    def plan(self, size: str) -> tuple:
        return self.steps if size == "bench" else self.smoke

    def runs(self, size: str, seed: int) -> list:
        """``(label, subcommand, overrides, program seed)`` per step.

        Each step writes to its own directory named by the label.  A repeated
        subcommand gets a seed derived from the benchmark seed, so its runs
        cover more inputs instead of repeating the first.
        """
        out, seen = [], {}
        for i, (sub, sets) in enumerate(self.plan(size)):
            k = seen.get(sub, 0)
            seen[sub] = k + 1
            out.append((f"{i}-{sub}", sub, sets, derive_seed(seed, k)))
        return out

    def spec_hash(self, size: str) -> str:
        blob = json.dumps([[sub, sets] for sub, sets in self.plan(size)], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def derive_seed(seed: int, k: int) -> int:
    """The benchmark seed for k = 0, else a 60-bit seed hashed from (seed, k)."""
    if k == 0:
        return seed
    return int(hashlib.sha256(f"{seed}/{k}".encode()).hexdigest()[:15], 16)


_LAB_DESK_SMOKE = (
    ("returns", {"ensemble.returns_samples": 4, "horizons.return_horizon": 300}),
    ("bc-check", {"ensemble.bc_budget": 60}),
    ("expansion", {"ensemble.expansion_starts": 10, "ensemble.koebe_branches": 5,
                   "horizons.envelope_horizon": 200, "horizons.mane_horizon": 50}),
    ("stability-sweep", {"partition.n_bins": 32, "noise.eps_ladder": "0.02,0.01"}),
    ("simulate", {"ensemble.n_orbits": 2, "horizons.orbit_steps": 50}),
    ("depth", {"ensemble.depth_traces": 2, "horizons.depth_steps": 50}),
    ("binding", {}),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "density-noisy",
            # 6e6 steps: long enough that growing the noise stream is most of the run
            steps=(("density", {"ensemble.birkhoff_steps": 6_000_000}),),
            smoke=(("density", {"ensemble.birkhoff_steps": 40_000, "ensemble.burn_in": 1_000,
                                "partition.n_bins": 64}),),
        ),
        Workload(
            "inducing-tail",
            steps=(("inducing-tail", {"ensemble.tail_members": 5_000}),),
            smoke=(("inducing-tail", {"ensemble.tail_members": 40, "horizons.tail_horizon": 300,
                                      "horizons.nice_depth": 16}),),
        ),
        Workload(
            "nice-set",
            # twice, so a run averages 8 noise fibers: the mp work varies by fiber
            steps=(("nice-set", {}), ("nice-set", {})),
            smoke=(("nice-set", {"horizons.nice_depth": 16, "horizons.verify_horizon": 40}),) * 2,
        ),
        Workload(
            "lab-desk",
            # returns and bc-check at half their default samples, to fit the run length
            steps=(
                ("returns", {"ensemble.returns_samples": 100}),
                ("bc-check", {"ensemble.bc_budget": 2_000}),
                ("expansion", {}),
                ("stability-sweep", {}),
                ("simulate", {}),
                ("depth", {}),
                ("binding", {}),
            ),
            smoke=_LAB_DESK_SMOKE,
        ),
    )
}


# -- environment ------------------------------------------------------------------


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def source_present(root: str) -> bool:
    return os.path.isfile(os.path.join(root, "src", "lorenzlab", "cli.py"))


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: str, versions: dict) -> dict:
    """Machine, library and tree description recorded with every run.

    ``versions`` are the library versions a worker reported from inside the
    measured environment.
    """
    env = child_env(root)
    git_env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(os.path.abspath(root)))
    try:
        git = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=root, env=git_env,
                             capture_output=True, text=True, timeout=10)
        describe = git.stdout.strip() if git.returncode == 0 else "not a git tree"
    except (OSError, subprocess.TimeoutExpired):
        describe = "git unavailable"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        **versions,
        "blas_threads": {k: env[k] for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_describe": describe,
    }


def calibration_s() -> float:
    """Time of a fixed pure-Python loop: a gauge of the machine's speed phases.

    Recorded next to each rep as a diagnostic; never folded into a metric.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    return time.perf_counter() - t0


# -- one rep ------------------------------------------------------------------------


def spawn_worker(root: str, work_dir: str, workload: str, seed: int, size: str,
                 trace: bool = False, setup_only: bool = False) -> dict:
    """Run one fresh worker process; returns its report plus the exit code."""
    os.makedirs(work_dir, exist_ok=True)
    job = {"workload": workload, "seed": seed, "size": size, "out": work_dir,
           "trace": trace, "setup_only": setup_only}
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, json.dumps(job), repr(t_spawn)],
            cwd=root, env=child_env(root), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        return {"returncode": "timeout", "stderr_tail": f"no result within {REP_TIMEOUT_S} s"}
    report_path = os.path.join(work_dir, "worker.json")
    report = {}
    if os.path.isfile(report_path):
        with open(report_path, encoding="utf-8") as fh:
            report = json.load(fh)
    report["returncode"] = proc.returncode
    if proc.returncode != 0:
        report["stderr_tail"] = proc.stderr[-2000:]
    return report


# -- correctness --------------------------------------------------------------------


def _sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def artifact_digests(out_dir: str) -> tuple[dict, dict]:
    """(sha256 per CSV and per summary ``results`` block, summaries by step label)."""
    digests, summaries = {}, {}
    for label in sorted(os.listdir(out_dir)):
        step_dir = os.path.join(out_dir, label)
        if not os.path.isdir(step_dir):
            continue
        for name in sorted(os.listdir(step_dir)):
            path = os.path.join(step_dir, name)
            if name.endswith(".csv"):
                digests[f"{label}/{name}"] = _sha256_file(path)
            elif name.endswith("_summary.json"):
                with open(path, encoding="utf-8") as fh:
                    summaries[label] = json.load(fh)
                digests[f"{label}/{name}:results"] = hashlib.sha256(
                    _canonical(summaries[label]["results"]).encode()).hexdigest()
    return digests, summaries


def _read_csv(path: str) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _density_mass(path: str) -> float:
    return sum((float(r["bin_right"]) - float(r["bin_left"])) * float(r["weight"]) for r in _read_csv(path))


def check_invariants(out_dir: str, summaries: dict) -> tuple[list, dict]:
    """Seed-independent invariants of every step; returns (problems, facts compared across reps)."""
    problems, facts = [], {}
    for label, summary in summaries.items():
        step_dir = os.path.join(out_dir, label)
        res = summary["results"]
        if summary["subcommand"] == "density":
            if not res["residual"] <= 1e-10:
                problems.append(f"{label}: residual {res['residual']} > 1e-10")
            for name in ("ulam_density.csv", "birkhoff_density.csv"):
                mass = _density_mass(os.path.join(step_dir, name))
                if abs(mass - 1.0) > 1e-9:
                    problems.append(f"{label}: {name} carries mass {mass!r}")
        elif summary["subcommand"] == "inducing_tail":
            surv = [float(r["survival"]) for r in _read_csv(os.path.join(step_dir, "inducing_tail.csv"))]
            if any(b > a for a, b in zip(surv, surv[1:])):
                problems.append(f"{label}: survival is not non-increasing")
            sub = res["verified_subsample"]
            if not sub["agree"] <= sub["checked"]:
                problems.append(f"{label}: verified subsample agree {sub['agree']} > checked {sub['checked']}")
            members = res["members"]
            censored = round(res["censoring_fraction"] * members)
            accepted = round((1.0 - surv[-1]) * members)
            if censored + accepted != members:
                problems.append(f"{label}: censored {censored} + accepted {accepted} != members {members}")
        elif summary["subcommand"] == "nice_set":
            fibers = res["fibers"]
            bad = [f["omega"] for f in fibers if not f["containment_ok"]]
            if bad:
                problems.append(f"{label}: containment fails on fibers {bad}")
            facts.setdefault("nice_set_violations", []).extend(f["violations"] for f in fibers)
    return problems, facts


def load_references() -> dict:
    if not os.path.isfile(REFERENCES):
        return {}
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def check_rep(workload: Workload, size: str, seed: int, report: dict, out_dir: str,
              references: dict, first: dict | None) -> tuple[list, dict]:
    """All checks for one rep; returns (problems, comparable record of this rep)."""
    if report.get("returncode") != 0:
        return [f"worker exited {report.get('returncode')}: {report.get('stderr_tail', '')[-400:]}"], {}
    codes = report.get("exit_codes", {})
    labels = [label for label, *_ in workload.runs(size, seed)]
    problems = [f"{label} exited {codes.get(label)}" for label in labels if codes.get(label) != 0]
    if problems:
        return problems, {}
    digests, summaries = artifact_digests(out_dir)
    if sorted(summaries) != sorted(labels):
        problems.append(f"summaries written for {sorted(summaries)}, expected {sorted(labels)}")
    inv_problems, facts = check_invariants(out_dir, summaries)
    problems += inv_problems
    record = {"digests": digests, **facts}
    pinned = references.get(workload.name, {}).get(size, {})
    ref = pinned.get("seeds", {}).get(str(seed))
    if ref is not None:
        if pinned.get("spec_hash") != workload.spec_hash(size):
            problems.append("pinned reference was recorded for another workload definition")
        for key, want in ref.items():
            if record.get(key) != want:
                problems.append(f"{key} differs from the pinned reference")
    if first is not None:
        for key, want in first.items():
            if record.get(key) != want:
                problems.append(f"{key} differs from the run's first rep of the same seed")
    return problems, record


# -- the run ------------------------------------------------------------------------


def quartiles(values: list) -> tuple[float, float, float]:
    """(q1, median, q3) as statistics.quantiles gives them; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


@dataclass
class RunResult:
    env: dict
    reps: list  # per-rep dicts: setup_s, wall_s, peak_rss_mb, calibration_s, problems, traced
    setups: list  # every set-up time measured in the run, in seconds
    trace: dict | None

    @property
    def attempted(self) -> int:
        return len(self.reps)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.reps if r["problems"])

    def samples(self, key: str, traced: bool = False) -> list:
        return [r[key] for r in self.reps if r["traced"] == traced and not r["problems"] and key in r]


def run_workload(root: str, name: str, seed: int, seconds: float, size: str = "bench",
                 trace: bool = False, log=None) -> RunResult:
    """Repeat reps of one workload for about ``seconds`` seconds.

    The first rep is traced when ``trace`` is set; later reps are untraced.
    A rep starts only if the slowest rep so far still fits in the budget,
    and every run makes at least one untraced rep.
    """
    workload = WORKLOADS[name]
    references = load_references()
    work_root = os.path.join(root, ".perfbench-work", f"{name}-{os.getpid()}")
    shutil.rmtree(work_root, ignore_errors=True)
    t_start = time.monotonic()
    setups, reps = [], []
    first = None
    trace_data = None
    env_record = {}
    try:
        slowest = 0.0
        k = 0
        while True:
            traced = trace and k == 0
            untraced_done = any(not r["traced"] for r in reps)
            elapsed = time.monotonic() - t_start
            if reps and untraced_done and elapsed + slowest > seconds:
                break
            out_dir = os.path.join(work_root, f"rep{k}")
            calib = calibration_s()
            t0 = time.monotonic()
            report = spawn_worker(root, out_dir, name, seed, size, trace=traced)
            slowest = max(slowest, time.monotonic() - t0)
            problems, record = check_rep(workload, size, seed, report, out_dir, references, first)
            if first is None and record:
                first = record
            rep = {"rep": k, "traced": traced, "calibration_s": calib, "problems": problems}
            for key in ("setup_s", "wall_s", "peak_rss_mb"):
                if key in report:
                    rep[key] = report[key]
            if traced and os.path.isfile(os.path.join(out_dir, "trace.json")):
                with open(os.path.join(out_dir, "trace.json"), encoding="utf-8") as fh:
                    trace_data = json.load(fh)
            if "setup_s" in report and not traced:
                setups.append(report["setup_s"])
            reps.append(rep)
            if log:
                log({"rep": rep})
            shutil.rmtree(out_dir, ignore_errors=True)
            if k == 0:
                env_record = environment(root, report.get("versions", {}))
                if log:
                    log({"env": env_record})
                for j in range(SETUP_PROBES):
                    probe = spawn_worker(root, os.path.join(work_root, f"setup{j}"), name, seed, size,
                                         setup_only=True)
                    if probe.get("returncode") == 0:
                        setups.append(probe["setup_s"])
            k += 1
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.join(root, ".perfbench-work"))
        except OSError:
            pass
    return RunResult(env_record, reps, setups, trace_data)


def end_to_end(result: RunResult) -> dict:
    """Median set-up time, body wall time and peak RSS over the untraced reps."""
    out = {}
    for key, samples in (
        ("setup_s", result.setups),
        ("wall_s", result.samples("wall_s")),
        ("peak_rss_mb", result.samples("peak_rss_mb")),
    ):
        if samples:
            out[key] = quartiles(samples) + (len(samples),)
    return out
