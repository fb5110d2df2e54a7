#!/bin/sh
# Pre-merge gate, equivalent to `make check`: formatting + build + vet +
# race-enabled full test suite + a fast fleet-evacuation smoke run. Run
# from anywhere inside the repository.
set -eux
cd "$(dirname "$0")/.."
# The ABBA comparison and LoC scripts are run by hand; check they parse.
sh -n scripts/abba.sh
sh -n scripts/loc.sh
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go build ./...
# The sweep farm is a generic fan-out engine: the directives it runs are
# built in internal/scenario, so it imports none of what they run.
if go list -deps ./internal/simfarm | grep -E '^repro/internal/(experiments|fleet|churn|ninja)$'; then
    echo "internal/simfarm must not import the packages above" >&2
    exit 1
fi
go vet ./...
go test -race ./...
# The zero-allocation tests (kernel wake-ups, warm Sendrecv rounds, warm
# fabric replans) are built without -race only (the race detector
# allocates on coroutine switches), so run them once more here.
go test -run Alloc ./internal/sim ./internal/mpi ./internal/fabric
# The layer benchmarks (kernel, MPI point-to-point, fabric max-min) run
# once each, so they keep compiling and running.
go test -run '^$' -bench . -benchtime 1x ./internal/sim ./internal/mpi ./internal/fabric
# The benchmark is a module of its own, so the root `go test ./...` does
# not enter it. Its tests run each workload once in small shape and
# check it: churn's departed + rejected == arrived, and every pass
# reproducing the warm-up pass's simulated outputs.
(cd perfbench && go build ./... && go vet ./... && go test ./...)
# Smoke the fleet control plane end to end (small fleet, ~1 s). The
# matrix includes the rolling-maintenance drain and the bidirectional
# return-home rows.
go run ./cmd/ninjabench -run=ext-fleet -fleet-jobs=3 >/dev/null
# ...and the time-expanded max-flow sequencing matrix (the alternate
# planner drives the same executor through merged rounds).
go run ./cmd/ninjabench -run=ext-fleet -fleet-jobs=3 -fleet-seq=maxflow >/dev/null
# MPI smokes: an IMB all-to-all before and after a fallback migration to
# Ethernet/TCP, and a 16-rank FT (a 4×4 grid, so its transposes run over
# row communicators) through a Ninja migration to the IB cluster.
go run ./cmd/mpibench -pattern=alltoall -vms=4 -ranks=2 -compare >/dev/null
go run ./cmd/ninjasim -vms=4 -ranks=4 -workload=FT -scale=0.02 -migrate-at=20 -dst=ib >/dev/null
# RDMA-native ladder smoke under the race detector: every rung (clean QP
# replay, the three injected demotions, the preflight demotion and the
# hotplug baseline) on a 2-VM deployment.
go run -race ./cmd/ninjabench -run=ext-rdma >/dev/null
# Monte Carlo sweep smoke under the race detector: 4×3×2 = 24 cells run
# twice (parallelism 1 and 8) with the byte-identity check — 48 runs; a
# nondeterministic summary or a data race in the farm's worker pool fails
# here.
go run -race ./cmd/ninjabench -run=ext-sweep -sweep-jobs=2 -sweep-seeds=2 >/dev/null
# Online churn smoke under the race detector: the full policy × fault
# matrix (greedy vs destination-swap, fault free and through a node
# crash) on a reduced arrival count; the engine's mini-plan pipeline and
# fault injection run on the shared kernel here.
go run -race ./cmd/ninjabench -run=ext-churn -churn-jobs=24 >/dev/null
# Directive-spec smokes: one directive per body kind through the decoder
# and runner ninjad uses — churn mini-plans under the max-flow sequencer
# through a node crash, a capped rolling drain, and a sweep at a fixed
# worker count.
go run ./cmd/ninjabench -spec '{"kind":"churn","jobs":24,"seq":"maxflow","faulted":true}' >/dev/null
go run ./cmd/ninjabench -spec '{"kind":"rolling-maintenance","jobs":3,"max_in_flight":3}' >/dev/null
go run ./cmd/ninjabench -spec '{"kind":"sweep","jobs":2,"seeds":2,"parallelism":2}' >/dev/null
# Bench regression: every deterministic sim-* metric vs the committed
# baseline, the fleet sweep cells (long lone compute chains), Fig. 7 NPB,
# the churn policies and the sequencer plans included.
sh scripts/bench.sh >/dev/null
# ninjad crash-recovery smoke: submit a directive, kill -9 the daemon
# mid-lifecycle, restart it on the same state directory, and verify the
# job still completes — then drain cleanly on SIGTERM.
sh scripts/ninjad-smoke.sh
