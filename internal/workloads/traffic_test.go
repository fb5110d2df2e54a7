package workloads

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/mpi/btl"
	"repro/internal/sim"
)

// Transports a traffic case can run its cross-VM pairs over.
const (
	netIB       = ""         // VMM-bypass openib
	netTCP      = "tcp"      // no HCA in any guest: an Ethernet-only deployment
	netParavirt = "paravirt" // openib through a para-virtualized driver
)

// trafficCase is one workload run of the traffic golden.
type trafficCase struct {
	name            string
	vms, ranksPerVM int
	net             string
	// build returns the workload with its per-step hook (if it has one)
	// wired to step.
	build func(step func(i int, elapsed sim.Time)) Workload
}

func trafficCases() []trafficCase {
	var cs []trafficCase
	for _, pat := range []string{"pingpong", "exchange", "allreduce", "bcast", "alltoall"} {
		cs = append(cs, trafficCase{"imb-" + pat, 4, 2, netIB, func(func(int, sim.Time)) Workload {
			return &IMB{Pattern: pat, Sizes: []float64{1024, 1e5, 4e6}, Repetitions: 2}
		}})
	}
	cs = append(cs, trafficCase{"bcast-reduce", 4, 2, netIB, func(step func(int, sim.Time)) Workload {
		return &BcastReduce{BytesPerNode: 1e8, Steps: 3, StepDone: step}
	}})
	npb := func(kernel string) func(func(int, sim.Time)) Workload {
		return func(step func(int, sim.Time)) Workload {
			b, _ := NPBClassD(kernel) // every kernel is a preset; TestNPBPresets checks them
			b.Iterations, b.ComputePerIter, b.IterDone = 3, 0.01, step
			return b
		}
	}
	// 16 ranks make FT a 4×4 grid (row communicators); 8 ranks are not a
	// square, so FT takes the world all-to-all fallback.
	cs = append(cs,
		trafficCase{"npb-FT-grid", 4, 4, netIB, npb("FT")},
		trafficCase{"npb-FT-world", 2, 4, netIB, npb("FT")},
		trafficCase{"npb-CG", 4, 4, netIB, npb("CG")},
		// BT and LU exchange with their ring neighbours by rendezvous
		// Sendrecv; on 4 VMs the ring crosses VMs, so openib pairs run
		// beside sm ones.
		trafficCase{"npb-BT", 4, 4, netIB, npb("BT")},
		trafficCase{"npb-LU", 4, 4, netIB, npb("LU")},
		// The same LU ring with its cross-VM pairs over tcp, and over a
		// para-virtualized openib.
		trafficCase{"npb-LU-tcp", 4, 4, netTCP, npb("LU")},
		trafficCase{"npb-LU-paravirt", 4, 4, netParavirt, npb("LU")},
		trafficCase{"late-ring", 2, 2, netIB, func(step func(int, sim.Time)) Workload {
			return &lateRing{steps: 4, compute: 0.05, step: step}
		}})
	return cs
}

// lateRing is a rendezvous Sendrecv ring in which rank 1 computes before
// each exchange. Rank 0's receive (from rank 3) then completes while its
// send to rank 1 still waits for rank 1 to post, so a checkpoint that
// lands in the compute finds rank 0 waiting only in its send half: that
// half joins the coordination.
type lateRing struct {
	steps   int
	compute float64
	step    func(i int, elapsed sim.Time)
}

func (w *lateRing) Name() string               { return "late-ring" }
func (w *lateRing) Install(job *mpi.Job) error { return nil }

func (w *lateRing) Body(p *sim.Proc, r *mpi.Rank) {
	n, id := r.Job().Size(), r.RankID()
	for i := 0; i < w.steps; i++ {
		start := p.Now()
		r.FTProbe(p)
		if id == 1 {
			r.Compute(p, w.compute)
		}
		if _, err := r.Sendrecv(p, (id+1)%n, 300, 1e6, (id+n-1)%n, 300); err != nil {
			panic(fmt.Sprintf("late-ring rank %d: %v", id, err))
		}
		if id == 0 {
			w.step(i, p.Now()-start)
		}
	}
}

// finishRecorder records the instant each rank's body returns.
type finishRecorder struct {
	Workload
	at []sim.Time
}

func (f *finishRecorder) Body(p *sim.Proc, r *mpi.Rank) {
	f.Workload.Body(p, r)
	f.at[r.RankID()] = p.Now()
}

// runTraffic runs c once, requesting a checkpoint ckptAfter into the run
// when it is non-zero, writes what it observed to b and returns the
// run's duration.
func runTraffic(t *testing.T, b *strings.Builder, c trafficCase, ckptAfter sim.Time) sim.Time {
	t.Helper()
	k, job := newJobOver(t, c.vms, c.ranksPerVM, c.net != netTCP)
	defer k.Close()
	if c.net == netParavirt {
		for _, r := range job.Ranks() {
			for _, m := range r.BTLs().Modules() {
				if ib, ok := m.(*btl.OpenIB); ok {
					ib.SetParavirt(&btl.DefaultParavirtCosts)
				}
			}
		}
	}
	fmt.Fprintf(b, "== %s ckpt-after=%d\n", c.name, int64(ckptAfter))
	epoch := k.Now()
	w := c.build(func(i int, elapsed sim.Time) { fmt.Fprintf(b, "step %d %d\n", i, int64(elapsed)) })
	rec := &finishRecorder{Workload: w, at: make([]sim.Time, job.Size())}
	done, err := Run(job, rec)
	if err != nil {
		t.Fatal(err)
	}
	if ckptAfter > 0 {
		k.Go("trigger", func(p *sim.Proc) {
			p.Sleep(ckptAfter)
			fut, err := job.RequestCheckpoint()
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
				return
			}
			fut.Wait(p)
			fmt.Fprintf(b, "ckpt-done %d\n", int64(p.Now()-epoch))
		})
	}
	k.Run()
	if !done.Done() {
		t.Fatalf("%s (ckpt-after %v): workload did not finish", c.name, ckptAfter)
	}
	if imb, ok := w.(*IMB); ok {
		for _, r := range imb.Results {
			fmt.Fprintf(b, "size %g avg %d\n", r.Bytes, int64(r.AvgTime))
		}
	}
	for i, at := range rec.at {
		fmt.Fprintf(b, "rank %d done %d\n", i, int64(at-epoch))
	}
	fmt.Fprintf(b, "stats %+v\n", k.Stats())
	return k.Now() - epoch
}

// TestTrafficGolden pins the exact traffic of every collective the
// workloads call: each IMB pattern, BcastReduce, NPB FT (on row
// communicators and on the world fallback) and CG, the neighbour
// Sendrecv rings of NPB BT and LU (LU also over tcp and over
// para-virtualized openib), and a ring whose checkpoint lands on a
// Sendrecv's send half, each once clean and
// once with a checkpoint requested halfway through the clean run. Rank
// 0's per-step and per-size times, every rank's finish instant and the
// kernel's event counts must match testdata/traffic.golden byte for byte.
func TestTrafficGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range trafficCases() {
		clean := runTraffic(t, &b, c, 0)
		runTraffic(t, &b, c, clean/2)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "traffic.golden"))
	if err != nil {
		t.Fatal(err)
	}
	got := b.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("differs from traffic.golden at line %d:\n got %s\nwant %s", i+1, g, w)
		}
	}
}
