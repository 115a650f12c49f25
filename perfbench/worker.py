"""One rep of a workload in a fresh interpreter.

Usage (as the harness calls it): ``python3 perfbench/worker.py JOB_JSON T_SPAWN``
where T_SPAWN is the parent's ``time.monotonic()`` just before it started this
process.  Set-up time runs from that instant until lorenzlab is imported,
the workload's config is loaded and validated, and the family is built.
The body then runs each of the workload's CLI subcommands in this process,
each writing to its own step directory.
The report goes to ``worker.json`` in the job's output directory, and with
tracing on, the spans and counters to ``trace.json`` beside it.
"""

import contextlib
import json
import os
import resource
import sys
import time


def main() -> int:
    job = json.loads(sys.argv[1])
    t_spawn = float(sys.argv[2])
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from harness import WORKLOADS

    import lorenzlab  # noqa: F401  (imported for the set-up measurement)
    from lorenzlab import cli
    from lorenzlab.config import load_config

    tracer = None
    if job["trace"]:
        from tracer import ROOT, Tracer

        tracer = Tracer(run_id=f"{job['workload']}:{job['seed']}:{os.getpid()}").install()

    runs = WORKLOADS[job["workload"]].runs(job["size"], job["seed"])
    first_overrides = dict(runs[0][2], **{"noise.seed": job["seed"]})
    cfg = load_config(None, first_overrides)
    cfg.validate()
    cfg.perturbed_family()
    report = {"setup_s": time.monotonic() - t_spawn}

    import mpmath.libmp
    import numpy
    import scipy

    report["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                          "mpmath": mpmath.__version__, "mpmath_backend": mpmath.libmp.BACKEND}

    if not job["setup_only"]:
        exit_codes = {}
        t0 = time.perf_counter()
        with tracer.span(ROOT) if tracer is not None else contextlib.nullcontext():
            for label, *step in runs:
                exit_codes[label] = cli.main(_argv(*step, os.path.join(job["out"], label)))
        report["wall_s"] = time.perf_counter() - t0
        report["exit_codes"] = exit_codes
        report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
            tracer.dump(os.path.join(job["out"], "trace.json"))

    with open(os.path.join(job["out"], "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


def _argv(sub, sets, seed, out_dir):
    argv = [sub, "--seed", str(seed), "--out", out_dir]
    for key, value in sets.items():
        argv += ["--set", f"{key}={value}"]
    return argv


if __name__ == "__main__":
    sys.exit(main())
