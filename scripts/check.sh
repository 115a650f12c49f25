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
# Two closing "info" lines give the net lines the working tree changes in src/
# and tests/ against HEAD (staged new files count, untracked ones do not).  A
# third counts the settable values of src/lorenzlab at HEAD and in the working
# tree: function parameters (self and cls not counted), parameters with a
# default, dataclass fields, dataclass fields with a default, command-line
# options and public names (module-level functions and classes, and methods,
# whose names have no leading underscore).  The info lines never fail the run.
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
for dir in src tests; do
    if numstat=$(git diff --numstat HEAD -- "$dir" 2>/dev/null); then
        echo "info  $dir/ lines against HEAD: $(echo "$numstat" | awk '{a += $1; d += $2} END {printf "+%d -%d, net %+d", a, d, a - d}')"
    fi
done
python3 - <<'EOF'
import ast
import pathlib
import subprocess


def public_names(tree):
    """Functions and classes at module or class level whose names have no leading underscore."""
    count = 0
    bodies = [tree.body]
    while bodies:
        for node in bodies.pop():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                count += not node.name.startswith("_")
            if isinstance(node, ast.ClassDef):
                bodies.append(node.body)
    return count


def settable(sources):
    """(parameters, defaulted parameters, dataclass fields, those with defaults, CLI options, public names)."""
    params = defaulted = fields = field_defaults = options = public = 0
    for source in sources:
        tree = ast.parse(source)
        public += public_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                names = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg] if x]
                params += sum(name not in ("self", "cls") for name in names)
                defaulted += len(a.defaults) + sum(d is not None for d in a.kw_defaults)
            elif isinstance(node, ast.ClassDef) and any(
                "dataclass" in (getattr(d, "id", None), getattr(getattr(d, "func", None), "id", None))
                for d in node.decorator_list
            ):
                annotated = [s for s in node.body if isinstance(s, ast.AnnAssign)]
                fields += len(annotated)
                field_defaults += sum(s.value is not None for s in annotated)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                first = node.args[0] if node.args else None
                options += isinstance(first, ast.Constant) and str(first.value).startswith("--")
    return params, defaulted, fields, field_defaults, options, public


def git(*args):
    return subprocess.run(["git", *args], capture_output=True, text=True, check=True).stdout


try:
    tracked = git("ls-tree", "-r", "--name-only", "HEAD", "--", "src/lorenzlab").split()
    head = settable(git("show", f"HEAD:{path}") for path in tracked if path.endswith(".py"))
except (OSError, subprocess.CalledProcessError):
    pass
else:
    tree = settable(path.read_text() for path in sorted(pathlib.Path("src/lorenzlab").rglob("*.py")))
    labels = ("parameters", "defaulted parameters", "dataclass fields", "dataclass fields with defaults",
              "CLI options", "public names")
    print("info  settable values against HEAD: "
          + ", ".join(f"{label} {a} -> {b}" for label, a, b in zip(labels, head, tree)))
EOF
exit "$failed"
