"""Alternated base/change pairs of benchmark workloads.

    python3 scripts/pairs.py --workload W [W ...] [--pairs 10] [--seconds 25] [--seed N] [--base REV]
                             [--json PATH]

Exports REV (default HEAD) with ``git archive`` into a temporary directory
(the base), then runs ``perfbench/run.py --trace 0`` alternately in that tree
and in the working tree (the change), switching which side runs first every
pair.  The workloads run in turn, each for all its pairs, on one export and
one compile.  Both sides run the working tree's ``perfbench`` with one
environment.
Their sources are byte-compiled into the trees' own ``__pycache__`` before
the first run, and no bytecode is written after it, so neither side reads a
cache the other lacks or recompiles a module the other does not.

For every workload and every end-to-end metric of BENCHMARK.json it prints
one table of each side's median and quartiles over the pairs in which both
runs read correct, as perfbench's harness takes them, and the number of
pairs the change won (ties count for neither); a metric with fewer than two
such pairs reads "too few correct pairs".  After each table it prints one
verdict per metric: "gain" when the change won at least 9 in 10 of the pairs
and its median is better than the base's by more than the base's
interquartile range, "worse beyond bound" when its median is worse than the
base's by more than the metric's ``bound`` in BENCHMARK.json (a fraction of
the base's median), and "within bound" otherwise.  With ``--json PATH`` it
also writes that record to PATH (a ``BENCH_<pr>.json``): per workload and
metric each pair's two values (null for a run that did not read correct),
both sides' median and quartiles, the pairs won and the verdict, with the
``git describe`` of REV and of the working tree.  A run of several
minutes: it is not part of scripts/check.sh.  Exits 1 when any run does not print ``"correct": true``,
2 when the base cannot be exported; the temporary directory is removed on
exit.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from harness import quartiles  # noqa: E402


def _run(tree, env, args, workload):
    """One perfbench run of ``workload`` in ``tree``: (correct, {metric: value})."""
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return False, {}
    return result.get("correct") is True, {k: v["value"] for k, v in result.get("metrics", {}).items()}


def _spread(side):
    return f"{side['median']:.4g} [{side['q1']:.4g}, {side['q3']:.4g}]"


def _verdict(metric, bases, changes, won):
    """One metric's verdict over its pairs: gain, worse beyond bound or within bound."""
    sign = 1 if metric["better"] == "lower" else -1
    q1, base, q3 = quartiles(list(bases))
    change = quartiles(list(changes))[1]
    if won >= 0.9 * len(bases) and sign * (base - change) > q3 - q1:
        return "gain"
    if sign * (change - base) > metric["bound"] * abs(base):
        return "worse beyond bound"
    return "within bound"


def _record(metric, runs):
    """One metric's record: each pair's values and, over the pairs in which both runs read correct,
    both sides' quartiles, the pairs the change won and the verdict (absent below two such pairs)."""
    name = metric["name"]
    values = [{side: runs[side][i].get(name) for side in runs} for i in range(len(runs["base"]))]
    record = {"unit": metric["unit"], "better": metric["better"], "bound": metric["bound"], "pairs": values}
    both = [(v["base"], v["change"]) for v in values if None not in (v["base"], v["change"])]
    record["correct_pairs"] = len(both)
    if len(both) >= 2:
        sign = 1 if metric["better"] == "lower" else -1
        bases, changes = zip(*both)
        won = sum(sign * (b - c) > 0 for b, c in both)
        for side, vals in (("base", bases), ("change", changes)):
            q1, median, q3 = quartiles(list(vals))
            record[side] = {"median": median, "q1": q1, "q3": q3}
        record["won"] = won
        record["verdict"] = _verdict(metric, bases, changes, won)
    return record


def _table(workload, args, records):
    """Print one workload's table: per end-to-end metric each side's spread and the pairs the change won,
    then each metric's verdict."""
    print(f"{workload} at seed {args.seed}, {args.pairs} pairs, base {args.base}:")
    print(f"{'metric':12s} {'base median [q1, q3]':32s} {'change median [q1, q3]':32s} change won")
    for name, r in records.items():
        if "verdict" not in r:
            print(f"{name:12s} too few correct pairs ({r['correct_pairs']})")
            continue
        won = f"{r['won']}/{r['correct_pairs']}"
        print(f"{name:12s} {_spread(r['base']):32s} {_spread(r['change']):32s} {won}", flush=True)
    for name, r in records.items():
        if "verdict" in r:
            print(f"verdict {name}: {r['verdict']}", flush=True)


def _describe(*args):
    out = subprocess.run(["git", "-C", ROOT, "describe", "--always", *args], capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--seed", type=int, default=20240901)
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--json", metavar="PATH", help="also write the pairs and verdicts to PATH")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]

    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        base = os.path.join(tmp, "base")
        os.mkdir(base)
        archive = subprocess.run(["git", "-C", ROOT, "archive", args.base], stdout=subprocess.PIPE)
        if archive.returncode != 0 or subprocess.run(["tar", "-x", "-C", base], input=archive.stdout).returncode:
            print(f"error: cannot export {args.base}", file=sys.stderr)
            return 2
        env = dict(os.environ)
        for var in ("PYTHONPYCACHEPREFIX", "PYTHONDONTWRITEBYTECODE"):
            env.pop(var, None)
        dirs = [os.path.join(tree, "src") for tree in (base, ROOT)] + [os.path.join(ROOT, "perfbench")]
        subprocess.run([sys.executable, "-m", "compileall", "-q", *dirs], env=env, check=True)
        env["PYTHONDONTWRITEBYTECODE"] = "1"

        sides = {"base": base, "change": ROOT}
        all_correct = True
        bench = {
            "seed": args.seed,
            "pairs": args.pairs,
            "seconds": args.seconds,
            "git_describe": {"base": _describe(args.base), "change": _describe("--dirty")},
            "workloads": {},
        }
        for workload in args.workload:
            runs = {side: [] for side in sides}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                for side in order:
                    correct, values = _run(sides[side], env, args, workload)
                    all_correct &= correct
                    runs[side].append(values if correct else {})
                    shown = ", ".join(f"{m['name']} {values.get(m['name'], float('nan')):.4g}" for m in metrics)
                    print(f"{workload} pair {i + 1}/{args.pairs} {side:6s} correct={correct} {shown}", flush=True)
            records = {m["name"]: _record(m, runs) for m in metrics}
            bench["workloads"][workload] = records
            _table(workload, args, records)

    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(bench, fh, indent=2)
            fh.write("\n")
    if not all_correct:
        print("error: a run did not print \"correct\": true", file=sys.stderr)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
