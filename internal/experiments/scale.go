package experiments

import (
	"repro/internal/sim"
)

// This file is the fleet-scale kernel workload behind BenchmarkFleetScale:
// a pure event-level model of an O(jobs) directive that concentrates the
// control plane's hot operations — Schedule/Cancel watchdog churn,
// processor-sharing completions, and same-instant event bursts — without
// goroutine handoffs, so it times the kernel's event queue and PS alone.

// FleetScaleResult summarizes one synthetic fleet-scale run.
type FleetScaleResult struct {
	Jobs  int
	Iters int
	Stats sim.Stats
	End   sim.Time // simulated completion time
}

// FleetScaleSim runs jobs synthetic orchestrators for iters iterations
// each on a fresh kernel; it is the kernel-queue row of the benchmark
// ledger. Every iteration submits a work quantum to a processor-sharing
// pool shared by up to 8 jobs (the PS O(log K) hot path), arms eight guard
// timers spanning the timer-wheel levels — the per-operation timeout fan a
// real orchestrator carries (precopy-pass watchdog, downtime cap, QMP
// timeout, FT probe, drain deadline, ...) — and cancels them all when the
// quantum completes, then sleeps a per-job think time. The run is fully
// deterministic: no wall clock, no PRNG.
func FleetScaleSim(jobs, iters int) FleetScaleResult {
	if jobs <= 0 {
		jobs = 8
	}
	if iters <= 0 {
		iters = 200
	}
	k := sim.NewKernel()
	defer k.Close()
	const poolSize = 8
	nPools := (jobs + poolSize - 1) / poolSize
	pools := make([]*sim.PS, nPools)
	for i := range pools {
		pools[i] = sim.NewPS(k, poolSize, 1)
	}
	type job struct {
		iter      int
		work      float64
		think     sim.Time
		watchdogs [8]sim.Event
		step      func()
		onServe   func(struct{})
	}
	noop := func() {}
	js := make([]*job, jobs)
	for i := 0; i < jobs; i++ {
		j := &job{
			work:  0.05 + float64(i%7)*0.01,
			think: sim.Time(50+i*13%250) * sim.Millisecond,
		}
		ps := pools[i%nPools]
		j.onServe = func(struct{}) {
			for w := range j.watchdogs {
				j.watchdogs[w].Cancel()
			}
			if j.iter >= iters {
				return
			}
			k.Schedule(j.think, j.step)
		}
		j.step = func() {
			j.iter++
			for w := range j.watchdogs {
				j.watchdogs[w] = k.Schedule(250*sim.Millisecond<<uint(w), noop)
			}
			ps.ServeAsync(j.work).OnDone(j.onServe)
		}
		js[i] = j
		k.Schedule(sim.Time(i)*sim.Millisecond, j.step)
	}
	end := k.Run()
	return FleetScaleResult{Jobs: jobs, Iters: iters, Stats: k.Stats(), End: end}
}
