"""Record the pinned correctness references of the bench-size workloads.

    python3 perfbench/pin.py [--workloads NAME ...]

Run from the root of a lorenzlab source checkout.  For the canonical and the
held-out seed it runs each workload once and stores the sha256 of every CSV
artifact and of each summary's ``results`` block, plus the nice-set
violation counts, in ``perfbench/references.json``.  Re-pin only when an
artifact change is intended, and say so where the change is described.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from harness import (  # noqa: E402
    PINNED_SEEDS,
    REFERENCES,
    WORKLOADS,
    check_rep,
    load_references,
    source_present,
    spawn_worker,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=sorted(WORKLOADS), choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not source_present(root):
        print(f"error: no lorenzlab source tree (src/lorenzlab) under {root}", file=sys.stderr)
        return 2
    references = load_references()
    work = os.path.join(root, ".perfbench-work", "pin")
    try:
        for name in args.workloads:
            workload = WORKLOADS[name]
            seeds = {}
            for seed in PINNED_SEEDS:
                out_dir = os.path.join(work, f"{name}-{seed}")
                report = spawn_worker(root, out_dir, name, seed, "bench")
                problems, record = check_rep(workload, "bench", seed, report, out_dir, {}, None)
                if problems:
                    print(f"error: {name} seed {seed}: {problems}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = record
                print(f"pinned {name} seed {seed}: {len(record['digests'])} digests")
            references[name] = {"bench": {"spec_hash": workload.spec_hash("bench"), "seeds": seeds}}
    finally:
        shutil.rmtree(os.path.join(root, ".perfbench-work"), ignore_errors=True)
    with open(REFERENCES, "w", encoding="utf-8") as fh:
        json.dump(references, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
