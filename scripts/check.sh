#!/usr/bin/env bash
# The checks a change must pass, in one command:
#   1. the tier-1 test suite (tests/, with src/ on PYTHONPATH);
#   2. the benchmark harness's own tests (perfbench/tests);
#   3. one short untraced run (--seconds 1) of every workload in BENCHMARK.json
#      at seeds 20240901 and 17, each of which must print "correct": true.
#
#     scripts/check.sh
#
# Prints one line per check and exits 0 only when every check passes.  Logs,
# bytecode and Hypothesis' example database go under .perfbench-work/check/.
set -u
root="$(cd "$(dirname "$0")/.." && pwd)"
work="$root/.perfbench-work/check"
rm -rf "$work"
mkdir -p "$work"
export PYTHONPYCACHEPREFIX="$work/pycache"
failed=0

report() {  # status, label, log
    if [ "$1" -eq 0 ]; then
        echo "ok    $2"
    else
        echo "FAIL  $2 (log: $3)"
        failed=1
    fi
}

# pytest runs in the work directory, so its caches and Hypothesis' database land there
(cd "$work" && PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}" python -m pytest -q \
    --continue-on-collection-errors -p no:cacheprovider --rootdir "$root" "$root/tests") > "$work/tier1.log" 2>&1
report $? "tier-1 tests: $(tail -n 1 "$work/tier1.log")" "$work/tier1.log"
(cd "$work" && python -m pytest -q -p no:cacheprovider --rootdir "$root" "$root/perfbench/tests") \
    > "$work/perfbench-tests.log" 2>&1
report $? "perfbench tests: $(tail -n 1 "$work/perfbench-tests.log")" "$work/perfbench-tests.log"

cd "$root" || exit 1
workloads=$(python3 -c 'import json; print(*(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
for seed in 20240901 17; do
    for workload in $workloads; do
        log="$work/$workload-$seed"
        python3 perfbench/run.py --workload "$workload" --seed "$seed" --seconds 1 --trace 0 \
            > "$log.out" 2> "$log.err"
        tail -n 1 "$log.out" | grep -q '"correct": true'
        report $? "$workload at seed $seed" "$log.err"
    done
done
exit "$failed"
