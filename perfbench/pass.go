package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"

	"repro/internal/fleet"
	"repro/internal/ninja"
	"repro/internal/sim"
)

// pass is one execution of a workload's fixed unit of work: every
// directive of the workload, each on a freshly deployed testbed. The
// harness repeats passes and reports medians across them.
type pass struct {
	tr   *tracer // nil: untraced pass
	id   int     // pass number, the span run id
	root int     // span ID of the pass
	// kspan is the span of the kernel call in progress, the parent of
	// spans opened by simulated procs.
	kspan int

	setup   time.Duration   // host time inside experiments.Deploy* calls
	deploys []time.Duration // each of those calls, in order
	ops     []op            // one per directive (or migration), in order
	// attempted counts the operations the pass attempted in the unit
	// failed_frac uses (jobs, arrivals); 0 means one per op.
	attempted int

	// sim holds the pass's deterministic end-to-end outputs (sim_*,
	// model_err_s); fp accumulates every simulated output the pass
	// produced. Both must repeat exactly across passes.
	sim map[string]float64
	fp  strings.Builder

	layer map[string]float64 // per-layer values; nil on untraced passes
	errs  []string           // failed output checks
}

// op is one directive the pass ran: its host time (deploy + run) and
// whether it ended in a failed or refused outcome.
type op struct {
	name   string
	host   time.Duration
	failed bool
}

func newPass(id int, tr *tracer) *pass {
	p := &pass{tr: tr, id: id, sim: map[string]float64{}}
	if tr != nil {
		p.layer = map[string]float64{}
	}
	return p
}

func (p *pass) begin(name string, parent int) int { return p.tr.begin(name, parent, p.id, 1) }
func (p *pass) end(id int)                        { p.tr.end(id) }

// add accumulates a per-layer value (traced passes only).
func (p *pass) add(name string, v float64) {
	if p.layer != nil {
		p.layer[name] += v
	}
}

// checkf records a failed output check when ok is false.
func (p *pass) checkf(ok bool, format string, args ...any) {
	if !ok {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// record appends deterministic output to the pass fingerprint.
func (p *pass) record(format string, args ...any) {
	fmt.Fprintf(&p.fp, format, args...)
	p.fp.WriteByte('\n')
}

// deploy times one testbed deploy into the pass's set-up time.
func (p *pass) deploy(name string, fn func() error) (time.Duration, error) {
	sp := p.begin(name, p.root)
	t := time.Now()
	err := fn()
	d := time.Since(t)
	p.end(sp)
	p.setup += d
	p.deploys = append(p.deploys, d)
	p.add("experiments.deploy_s", d.Seconds())
	return d, err
}

// kernel runs fn, a call that drives k, and books the sim-layer counters
// of that call: events, host time per event and the process's voluntary
// context switches (simulated procs hand off between OS threads).
func (p *pass) kernel(k *sim.Kernel, name string, fn func()) time.Duration {
	if p.layer == nil {
		t := time.Now()
		fn()
		return time.Since(t)
	}
	p.kspan = p.begin(name, p.root)
	st0, cs0 := k.Stats(), voluntarySwitches()
	t := time.Now()
	fn()
	d := time.Since(t)
	st1, cs1 := k.Stats(), voluntarySwitches()
	p.end(p.kspan)
	p.kspan = 0
	p.add("sim.events", float64(st1.Executed-st0.Executed))
	p.add("sim.scheduled", float64(st1.Scheduled-st0.Scheduled))
	p.add("sim.cancelled", float64(st1.Cancelled-st0.Cancelled))
	p.add("sim.kernel_host_s", d.Seconds())
	p.add("sim.ctx_switches", float64(cs1-cs0))
	return d
}

// ninjaReport books one orchestrator report into the ninja and vmm layer
// metrics.
func (p *pass) ninjaReport(rep ninja.Report) {
	if p.layer == nil {
		return
	}
	p.add("ninja.sim_coordination_s", rep.Coordination.Seconds())
	p.add("ninja.sim_hotplug_s", rep.Hotplug().Seconds())
	p.add("ninja.sim_migration_s", rep.Migration.Seconds())
	p.add("ninja.sim_linkup_s", rep.Linkup.Seconds())
	p.add("ninja.retries", float64(rep.Retries))
	p.add("ninja.degraded", float64(rep.DegradedToTCP))
	if rep.Outcome == ninja.OutcomeRolledBack {
		p.add("ninja.rollbacks", 1)
	}
	p.add("vmm.rdma_demoted", float64(rep.RDMADemoted))
	for _, st := range rep.VMStats {
		p.add("vmm.precopy_iters", float64(st.Iterations))
		p.add("vmm.wire_gb", st.WireBytes/1e9)
		p.add("vmm.scanned_gb", st.ScannedBytes/1e9)
		if st.RDMA != nil {
			p.add("vmm.qp_resync_s", st.RDMA.Resync.Seconds())
		}
	}
}

// frozenCost is the affinity deficit a gang accrues while frozen: each
// VM delivers none of its ideal interconnect affinity for the downtime.
func frozenCost(vms int, ib bool, downtime sim.Time) float64 {
	w := fleet.AffinityEth
	if ib {
		w = fleet.AffinityIB
	}
	return float64(vms*w) * downtime.Seconds()
}

// voluntarySwitches is the process's voluntary context-switch count.
func voluntarySwitches() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Nvcsw
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goRuntime samples the Go runtime counters whose deltas the go.* layer
// metrics report.
type goRuntime struct{ allocBytes, allocs, gcCycles, gcCPU, totalCPU float64 }

var goRuntimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readGoRuntime() goRuntime {
	s := make([]metrics.Sample, len(goRuntimeNames))
	for i, n := range goRuntimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return goRuntime{v[0], v[1], v[2], v[3], v[4]}
}

// addGoRuntime books the runtime counters' change since a into p.
func (p *pass) addGoRuntime(a goRuntime) {
	if p.layer == nil {
		return
	}
	b := readGoRuntime()
	p.add("go.alloc_mb", (b.allocBytes-a.allocBytes)/1e6)
	p.add("go.allocs", b.allocs-a.allocs)
	p.add("go.gc_cycles", b.gcCycles-a.gcCycles)
	if cpu := b.totalCPU - a.totalCPU; cpu > 0 {
		p.add("go.gc_cpu_frac", (b.gcCPU-a.gcCPU)/cpu)
	}
}

// passFunc runs one pass of a workload into p.
type passFunc func(p *pass) error

// measured is what the harness keeps of a run of passes.
type measured struct {
	passes   []*pass // timed passes (traced and untraced)
	runs     []time.Duration
	untraced []time.Duration // run times of untraced passes
	traced   []time.Duration // run times of traced passes
	ref      *pass           // the untimed warm-up pass
}

// repeat runs one untimed warm-up pass, then timed passes until budget
// has elapsed (at least minPasses). With tr non-nil, odd-numbered passes
// are traced and even ones are not, so the tracing overhead is measured
// in the same process. Each pass is preceded by a GC, outside the timing.
func repeat(fn passFunc, budget time.Duration, minPasses int, tr *tracer) (*measured, error) {
	m := &measured{}
	ref := newPass(0, nil)
	if err := fn(ref); err != nil {
		return nil, err
	}
	m.ref = ref
	start := time.Now()
	for i := 1; len(m.passes) < minPasses || time.Since(start) < budget; i++ {
		var ptr *tracer
		if tr != nil && i%2 == 1 {
			ptr = tr
		}
		p := newPass(i, ptr)
		runtime.GC()
		g0 := readGoRuntime()
		p.root = p.begin("pass", 0)
		t := time.Now()
		if err := fn(p); err != nil {
			return nil, err
		}
		total := time.Since(t)
		p.end(p.root)
		p.addGoRuntime(g0)
		run := total - p.setup
		if fp := p.fp.String(); fp != ref.fp.String() {
			p.errs = append(p.errs, fmt.Sprintf("pass %d: simulated outputs differ from the first pass", i))
		}
		m.passes = append(m.passes, p)
		m.runs = append(m.runs, run)
		if ptr != nil {
			m.traced = append(m.traced, run)
			if n := p.layer["sim.events"]; n > 0 {
				p.layer["sim.ns_per_event"] = p.layer["sim.kernel_host_s"] * 1e9 / n
			}
		} else {
			m.untraced = append(m.untraced, run)
		}
	}
	return m, nil
}
