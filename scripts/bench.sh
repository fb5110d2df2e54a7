#!/bin/sh
# Bench-regression gate: runs the paper benchmarks at -benchtime 1x and
# compares every deterministic metric against the committed baseline
# (scripts/bench_baseline.json) via cmd/benchdiff. One rule picks the
# gated metrics: a unit containing "/" (ns/op, B/op, allocs/op,
# events/sec, runs/sec, events/op, ...) is wall-clock or informational and
# never compared; every other unit (sim-*, farm-*, churn-*, seq-*,
# rdma-*, ...) is a simulated observable and is gated.
#
# Usage:
#   scripts/bench.sh            # full suite
#   scripts/bench.sh --smoke    # fast subset (Table 2 / Fig 6 / ablations)
#   scripts/bench.sh --update   # intentionally re-baseline after a change
#
# Exits non-zero if any gated metric drifts beyond 1e-6 relative.
set -eu
cd "$(dirname "$0")/.."

mode="${1:-}"
pattern='Benchmark'
diffargs=""
case "$mode" in
--smoke)
    # Subset chosen for coverage per second: hotplug+link-up, the
    # migration-time sweep, and the single-shot ablations. ~2 s total.
    pattern='BenchmarkTable2HotplugLinkup|BenchmarkFig6MemtestOverhead|BenchmarkAblation'
    ;;
--update)
    diffargs="-update"
    ;;
"") ;;
*)
    echo "usage: scripts/bench.sh [--smoke|--update]" >&2
    exit 2
    ;;
esac

out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test -run '^$' -bench "$pattern" -benchtime 1x . | tee "$out"

# shellcheck disable=SC2086
go run ./cmd/benchdiff $diffargs <"$out"
