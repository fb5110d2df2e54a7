package workloads

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// trafficCase is one workload run of the traffic golden.
type trafficCase struct {
	name            string
	vms, ranksPerVM int
	// build returns the workload with its per-step hook (if it has one)
	// wired to step.
	build func(step func(i int, elapsed sim.Time)) Workload
}

func trafficCases() []trafficCase {
	var cs []trafficCase
	for _, pat := range []string{"pingpong", "exchange", "allreduce", "bcast", "alltoall"} {
		cs = append(cs, trafficCase{"imb-" + pat, 4, 2, func(func(int, sim.Time)) Workload {
			return &IMB{Pattern: pat, Sizes: []float64{1024, 1e5, 4e6}, Repetitions: 2}
		}})
	}
	cs = append(cs, trafficCase{"bcast-reduce", 4, 2, func(step func(int, sim.Time)) Workload {
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
		trafficCase{"npb-FT-grid", 4, 4, npb("FT")},
		trafficCase{"npb-FT-world", 2, 4, npb("FT")},
		trafficCase{"npb-CG", 4, 4, npb("CG")},
		// BT and LU exchange with their ring neighbours by rendezvous
		// Sendrecv; on 4 VMs the ring crosses VMs, so openib pairs run
		// beside sm ones.
		trafficCase{"npb-BT", 4, 4, npb("BT")},
		trafficCase{"npb-LU", 4, 4, npb("LU")})
	return cs
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
	k, job := newJob(t, c.vms, c.ranksPerVM)
	defer k.Close()
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
// communicators and on the world fallback) and CG, and the neighbour
// Sendrecv rings of NPB BT and LU, each once clean and
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
