package mpi

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/sim"
)

// loopTrace runs n iterations of (FTProbe, Compute(0.2)) on every rank of a
// 2-VM × 2-rank rig, as ComputeLoop or as the eager loop it replaces, with
// drive running alongside. It returns what the job did, observably: each
// rank's checkpoint hooks and finish, and drive's own log lines.
func loopTrace(t *testing.T, chained bool, n int, drive func(p *sim.Proc, r *rig, logf func(string, ...any))) ([]string, sim.Stats) {
	t.Helper()
	r := newRig(t, 2, 2, true)
	defer r.k.Close()
	var trace []string
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%d ", r.k.Now())+fmt.Sprintf(format, args...))
	}
	installCRS(r.job,
		func(p *sim.Proc, rk *Rank) { logf("rank %d checkpoint", rk.RankID()) },
		func(p *sim.Proc, rk *Rank) { logf("rank %d continue", rk.RankID()) })
	app := r.job.Launch("app", func(p *sim.Proc, rk *Rank) {
		if chained {
			rk.ComputeLoop(p, n, 0.2)
		} else {
			for i := 0; i < n; i++ {
				rk.FTProbe(p)
				rk.Compute(p, 0.2)
			}
		}
		logf("rank %d done", rk.RankID())
	})
	r.k.Go("driver", func(p *sim.Proc) { drive(p, r, logf) })
	r.k.Run()
	if !app.Done() {
		t.Fatal("app did not finish")
	}
	return trace, r.k.Stats()
}

// compareLoops checks that ComputeLoop reproduces the eager loop's trace
// with fewer kernel events, and returns the trace.
func compareLoops(t *testing.T, n int, drive func(p *sim.Proc, r *rig, logf func(string, ...any))) []string {
	t.Helper()
	want, eager := loopTrace(t, false, n, drive)
	got, chained := loopTrace(t, true, n, drive)
	if len(want) != len(got) {
		t.Fatalf("chained trace has %d lines, eager %d:\n%v\n%v", len(got), len(want), got, want)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("trace diverges at %d:\n  eager:   %s\n  chained: %s", i, want[i], got[i])
		}
	}
	if chained.Executed >= eager.Executed {
		t.Fatalf("chained run executed %d events, eager %d: want fewer", chained.Executed, eager.Executed)
	}
	return got
}

// TestComputeLoopCheckpointMidChain: a checkpoint requested in the middle
// of a quantum makes every rank join at the boundary the eager loop would
// probe at.
func TestComputeLoopCheckpointMidChain(t *testing.T) {
	trace := compareLoops(t, 200, func(p *sim.Proc, r *rig, logf func(string, ...any)) {
		p.Sleep(10*sim.Second + 50*sim.Millisecond)
		done, err := r.job.RequestCheckpoint()
		if err != nil {
			t.Error(err)
			return
		}
		logf("requested")
		done.Wait(p)
		logf("checkpoint done")
	})
	var asked sim.Time
	joins := 0
	for _, l := range trace {
		var at sim.Time
		var rank int
		if _, err := fmt.Sscanf(l, "%d requested", &at); err == nil {
			asked = at
		}
		if _, err := fmt.Sscanf(l, "%d rank %d checkpoint", &at, &rank); err == nil {
			joins++
			if at <= asked {
				t.Fatalf("rank %d joined at %v, not after the request at %v", rank, at, asked)
			}
		}
	}
	if joins != 4 {
		t.Fatalf("%d ranks joined the checkpoint, want 4:\n%v", joins, trace)
	}
}

// TestComputeLoopStopMidChain: a VM stopped mid-quantum lets its ranks
// finish the quantum, then holds them at the run gate until Cont.
func TestComputeLoopStopMidChain(t *testing.T) {
	compareLoops(t, 100, func(p *sim.Proc, r *rig, logf func(string, ...any)) {
		vm := r.vms[0]
		p.Sleep(5*sim.Second + 30*sim.Millisecond)
		before := vm.HostCPU().Load()
		vm.Stop()
		p.Sleep(500 * sim.Millisecond)
		during := vm.HostCPU().Load()
		if before != 2 || during != 0 {
			t.Errorf("host load %d before the stop and %d during it, want 2 and 0", before, during)
		}
		logf("load before=%d during=%d", before, during)
		vm.Cont()
		logf("cont")
	})
}

// TestComputeLoopStartsWithCheckpointPending: a loop that starts while a
// checkpoint is pending probes and joins it at once, then chains.
func TestComputeLoopStartsWithCheckpointPending(t *testing.T) {
	compareLoops(t, 50, func(p *sim.Proc, r *rig, logf func(string, ...any)) {
		if _, err := r.job.RequestCheckpoint(); err != nil {
			t.Error(err)
		}
		logf("requested")
	})
}

// TestComputeLoopCloseReleasesGoroutines: closing a kernel whose ranks are
// parked in compute chains unwinds them like any parked process.
func TestComputeLoopCloseReleasesGoroutines(t *testing.T) {
	base := runtime.NumGoroutine()
	r := newRig(t, 2, 2, true)
	r.job.Launch("app", func(p *sim.Proc, rk *Rank) { rk.ComputeLoop(p, 1000, 0.2) })
	r.k.RunUntil(r.k.Now() + 30*sim.Second)
	if n := r.vms[0].HostCPU().Load(); n != 2 {
		t.Fatalf("host load %d mid-run, want 2 chained ranks", n)
	}
	r.k.Close()
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close, want <= %d", n, base)
	}
}
