#!/usr/bin/env bash
# A/B-compare two revisions on the benchmark that BENCHMARK.json declares.
#
#   .github/ab.sh <parent-rev> <change-rev> [pairs] [seconds]
#
# Each revision is exported with `git archive` into its own directory and
# built there with its own CARGO_TARGET_DIR, both under a fresh
# `mktemp -d` (set TMPDIR to choose where; the directory is kept so a
# rerun can inspect the raw outputs). For every workload, the script then
# runs `pairs` pairs (default 10) of BENCHMARK.json's command with
# `--workload <name> --seconds <seconds>` (default: its run_seconds),
# alternating sides: odd pairs run the parent first, even pairs the
# change. It prints the table CHANGES.md records: for every end-to-end
# metric the median [IQR] per side, the change in the median, and how
# many pairs the change won; then the per-pair run_s values and each
# run's correct/failed fields.
set -euo pipefail

if [[ $# -lt 2 || $# -gt 4 ]]; then
    sed -n '3,4p' "$0" >&2
    exit 2
fi
parent=$1
change=$2
pairs=${3:-10}
root=$(git rev-parse --show-toplevel)
bench="$root/BENCHMARK.json"
seconds=${4:-$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$bench")}
work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
echo "ab: work dir $work" >&2

for side in parent change; do
    rev=${!side}
    mkdir -p "$work/$side/src"
    git -C "$root" archive "$rev" | tar -x -C "$work/$side/src"
done

# The benchmark command, one argument per line.
mapfile -t cmd < <(python3 -c 'import json,sys; print("\n".join(json.load(open(sys.argv[1]))["command"]))' "$bench")
mapfile -t workloads < <(python3 -c 'import json,sys; print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' "$bench")

run() { # side workload out-file
    (cd "$work/$1/src" && CARGO_TARGET_DIR="$work/$1/target" "${cmd[@]}" \
        --workload "$2" --seconds "$seconds" 2>/dev/null | tail -n 1 >"$3") ||
        echo "ab: $1 $2 exited non-zero" >&2
}

# Build each side before timing anything: the command builds, then the
# benchmark rejects `--help` with a usage error (exit 2). A failed build
# exits with another code.
for side in parent change; do
    echo "ab: building $side (${!side})" >&2
    rc=0
    (cd "$work/$side/src" && CARGO_TARGET_DIR="$work/$side/target" "${cmd[@]}" --help) \
        >"$work/$side/build.log" 2>&1 || rc=$?
    if ((rc != 0 && rc != 2)); then
        echo "ab: building $side failed, see $work/$side/build.log" >&2
        exit 1
    fi
done

for w in "${workloads[@]}"; do
    for ((i = 1; i <= pairs; i++)); do
        if ((i % 2 == 1)); then order="parent change"; else order="change parent"; fi
        for side in $order; do
            echo "ab: $w pair $i $side" >&2
            run "$side" "$w" "$work/$w.$side.$i.json"
        done
    done
done

python3 - "$work" "$bench" "$pairs" "${workloads[@]}" <<'EOF'
import json, statistics, sys

work, bench, pairs, workloads = sys.argv[1], sys.argv[2], int(sys.argv[3]), sys.argv[4:]
metrics = json.load(open(bench))["end_to_end"]

def load(w, side):
    return [json.loads(open(f"{work}/{w}.{side}.{i}.json").read()) for i in range(1, pairs + 1)]

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def fmt(x):
    return f"{x:.6g}"

print("| workload | metric | parent | change | Δ | change wins |")
print("|---|---|---|---|---|---|")
runs = {}
for w in workloads:
    p, c = load(w, "parent"), load(w, "change")
    runs[w] = (p, c)
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pv = [r["metrics"][name]["value"] for r in p]
        cv = [r["metrics"][name]["value"] for r in c]
        (p1, pm, p3), (c1, cm, c3) = quartiles(pv), quartiles(cv)
        delta = (cm - pm) / pm * 100 if pm else 0.0
        wins = sum((b < a) if lower else (b > a) for a, b in zip(pv, cv))
        print(f"| {w} | `{name}` | {fmt(pm)} [{fmt(p1)}, {fmt(p3)}] "
              f"| {fmt(cm)} [{fmt(c1)}, {fmt(c3)}] | {delta:+.2f} % | {wins}/{pairs} |")
print()
for w in workloads:
    p, c = runs[w]
    side = lambda rs: " ".join(f"{r['metrics']['run_s']['value']:.3f}" for r in rs)
    print(f"run_s by pair, {w}: parent {side(p)} / change {side(c)}")
for w in workloads:
    p, c = runs[w]
    side = lambda rs: " ".join(f"{str(r['correct']).lower()}/{r['failed']}" for r in rs)
    print(f"correct/failed by pair, {w}: parent {side(p)} / change {side(c)}")
EOF
