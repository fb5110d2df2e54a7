#!/usr/bin/env bash
# Builds the benchmark and ninjad from this checkout, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write goes under .bench_build/ in the
# checkout (Go build cache, binaries, daemon stores, traces).
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" . && go build -o "$out/bin/ninjad" repro/cmd/ninjad)

exec "$out/bin/perfbench" -ninjad "$out/bin/ninjad" -work "$out" "$@"
