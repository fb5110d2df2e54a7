#!/bin/sh
# ABBA comparison of the benchmark's end-to-end metrics: the committed
# revision <rev> (the base) against the working tree (the change).
#
# Usage:
#   scripts/abba.sh <rev> <workload> <seed> <pairs>
#
# The base is exported with `git archive` into a temporary directory, so
# the repository itself is left untouched. Each pair runs
# perfbench/run.sh once on either side, for the benchmark's run_seconds,
# in the order base-change, change-base, base-change, ... so drift of the
# host over the session falls on both sides alike. It then prints, per
# end-to-end metric of BENCHMARK.json, the median and quartiles on each
# side and how many pairs the change won (better by its "better"
# direction; ties count as no win).
set -eu
cd "$(dirname "$0")/.."
if [ $# -ne 4 ]; then
    echo "usage: scripts/abba.sh <rev> <workload> <seed> <pairs>" >&2
    exit 2
fi
rev=$1
workload=$2
seed=$3
pairs=$4
secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')

git rev-parse --verify --quiet "$rev^{commit}" >/dev/null || {
    echo "abba: $rev is not a commit" >&2
    exit 2
}
work=$(mktemp -d "${TMPDIR:-/tmp}/abba.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/base"
git archive "$rev" | tar -x -C "$work/base"

run() { # run <dir> <out>: appends the run's result line to <out>
    if ! (cd "$1" && bash perfbench/run.sh --workload "$workload" --seed "$seed" \
        --seconds "$secs" --trace 0) >"$work/run.out"; then
        echo "abba: perfbench/run.sh failed in $1" >&2
        exit 1
    fi
    tail -n 1 "$work/run.out" >>"$2"
}

i=1
while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
        run "$work/base" "$work/base.jsonl"
        run . "$work/change.jsonl"
    else
        run . "$work/change.jsonl"
        run "$work/base" "$work/base.jsonl"
    fi
    echo "abba: pair $i/$pairs done" >&2
    i=$((i + 1))
done

python3 - "$work/base.jsonl" "$work/change.jsonl" <<'EOF'
import json
import statistics
import sys

spec = json.load(open("BENCHMARK.json"))
runs = [[json.loads(l) for l in open(p) if l.strip()] for p in sys.argv[1:3]]
if len(runs[0]) != len(runs[1]) or not runs[0]:
    sys.exit(f"abba: {len(runs[0])} base runs against {len(runs[1])} change runs")
for side in runs:
    for r in side:
        if not r["correct"]:
            sys.exit("abba: a run reported correct=false")


def quart(vs):
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    q1, q2, q3 = statistics.quantiles(vs, n=4)
    return q1, statistics.median(vs), q3


print(f"{'metric':<16} {'base q1/med/q3':>32} {'change q1/med/q3':>32} {'wins':>6}")
for m in spec["end_to_end"]:
    name = m["name"]
    base = [r["metrics"][name]["value"] for r in runs[0] if name in r["metrics"]]
    chg = [r["metrics"][name]["value"] for r in runs[1] if name in r["metrics"]]
    if not base and not chg:
        continue  # not reported by this workload
    if len(base) != len(runs[0]) or len(chg) != len(runs[1]):
        sys.exit(f"abba: {name} missing from some runs")
    better = (lambda c, b: c < b) if m["better"] == "lower" else (lambda c, b: c > b)
    wins = sum(better(c, b) for b, c in zip(base, chg))
    fb = "/".join(f"{v:.4g}" for v in quart(base))
    fc = "/".join(f"{v:.4g}" for v in quart(chg))
    print(f"{name:<16} {fb:>32} {fc:>32} {wins:>3}/{len(base)}")
EOF
