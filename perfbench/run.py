"""Benchmark entry point: one workload, one seed, one time budget.

    python3 perfbench/run.py --workload density-noisy --seed 20240901 --seconds 25 --trace 0

Run from the root of a source checkout of lorenzlab.  Diagnostics (the
environment record, one line per rep) go to stderr as JSON lines; the last
line of stdout is the result object.  With ``--trace 0`` its metrics are the
end-to-end medians over untraced reps; with ``--trace 1`` they are the
per-layer metrics of one traced rep.  Exits 1 when any rep fails its checks,
and 2 without a result when the source tree is missing or the seed is bad.
"""

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import WORKLOADS, end_to_end, run_workload, source_present  # noqa: E402
from tracer import layer_metrics  # noqa: E402

UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def _log(record):
    print(json.dumps(record), file=sys.stderr, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not source_present(root):
        print(f"error: no lorenzlab source tree (src/lorenzlab) under {root}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds positive", file=sys.stderr)
        return 2

    result = run_workload(root, args.workload, args.seed, args.seconds, trace=bool(args.trace), log=_log)
    metrics = {}
    medians = end_to_end(result)
    if args.trace:
        if result.trace is not None and "wall_s" in medians:
            for name, (value, unit) in layer_metrics(result.trace, medians["wall_s"][1]).items():
                metrics[name] = {"value": value, "unit": unit}
    else:
        for name, (q1, median, q3, count) in medians.items():
            metrics[name] = {"value": median, "unit": UNITS[name]}
    correct = result.failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": result.attempted, "failed": result.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
