"""Run every workload for one seed and print each metric with its spread.

    python3 perfbench/suite.py --seed 20240901 [--seconds 25] [--trace]

Run from the root of a lorenzlab source checkout.  For each workload it
prints every end-to-end metric by name and unit with the median, the first
and third quartiles and the sample count over the run's reps, and the error
rate (failed reps over attempted reps).  With ``--trace`` the first rep of
each workload is traced, and the per-layer metrics and the checks that the
workload loads the layer it was chosen for are printed as well.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import WORKLOADS, end_to_end, run_workload, source_present  # noqa: E402
from run import UNITS  # noqa: E402
from tracer import layer_metrics, load_checks  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not source_present(root):
        print(f"error: no lorenzlab source tree (src/lorenzlab) under {root}", file=sys.stderr)
        return 2
    all_ok = True
    for name in args.workloads:
        result = run_workload(root, name, args.seed, args.seconds, trace=args.trace)
        print(f"\n== {name}  seed {args.seed}  ({result.env['git_describe']}, "
              f"{result.env['cpu_model']}, nproc {result.env['nproc']}, mpmath {result.env.get('mpmath_backend')})")
        print(f"{'metric':<40} {'unit':<8} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}")
        medians = end_to_end(result)
        for metric, (q1, median, q3, count) in medians.items():
            print(f"{metric:<40} {UNITS[metric]:<8} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {count:>4}")
        rate = result.failed / result.attempted
        print(f"{'error_rate':<40} {'fraction':<8} {rate:>12.4f} {'':>12} {'':>12} {result.attempted:>4}")
        for rep in result.reps:
            for problem in rep["problems"]:
                print(f"  rep {rep['rep']}: {problem}")
        calib = [round(r["calibration_s"], 4) for r in result.reps]
        print(f"  calibration kernel before each rep (s): {calib}")
        all_ok &= result.failed == 0
        if args.trace and result.trace is not None and "wall_s" in medians:
            metrics = layer_metrics(result.trace, medians["wall_s"][1])
            for metric, (value, unit) in metrics.items():
                shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
                print(f"  {metric:<48} {unit:<6} {shown}")
            for statement, holds in load_checks(name, result.trace, metrics):
                print(f"  [{'ok' if holds else 'NOT MET'}] {statement}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
