package workloads

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/vmm"
)

func newJob(t *testing.T, nVMs, ranksPerVM int) (*sim.Kernel, *mpi.Job) {
	t.Helper()
	return newJobOver(t, nVMs, ranksPerVM, true)
}

// newJobOver is newJob on InfiniBand nodes if ib is set, and otherwise on
// an Ethernet-only cluster, where the ranks of different VMs talk over
// tcp.
func newJobOver(t *testing.T, nVMs, ranksPerVM int, ib bool) (*sim.Kernel, *mpi.Job) {
	t.Helper()
	k := sim.NewKernel()
	tb := hw.NewTestbed(k)
	name, spec := "ib", hw.AGCNodeSpec
	if !ib {
		name, spec.IBBandwidth = "eth", 0
	}
	cl := tb.AddCluster(name, nVMs, spec)
	var vms []*vmm.VM
	for i := 0; i < nVMs; i++ {
		vm, err := vmm.New(k, cl.Nodes[i], tb.Segment, vmm.Config{
			Name: cl.Nodes[i].Name + "/vm", VCPUs: 8, MemoryBytes: 20 * hw.GB,
		}, vmm.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if ib {
			if err := vm.AttachBootHCA(); err != nil {
				t.Fatal(err)
			}
		}
		vms = append(vms, vm)
	}
	k.RunUntil(fabric.DefaultIBTrainingTime + sim.Second)
	job, err := mpi.NewJob(k, mpi.Config{VMs: vms, RanksPerVM: ranksPerVM})
	if err != nil {
		t.Fatal(err)
	}
	return k, job
}

func TestMemtestTiming(t *testing.T) {
	// 10 passes over 3 GB at 3 GB/s = 10 s of single-core writing.
	k, job := newJob(t, 2, 1)
	epoch := k.Now()
	mt := &Memtest{ArrayBytes: 3e9, Passes: 10}
	done, err := Run(job, mt)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !done.Done() {
		t.Fatal("memtest incomplete")
	}
	elapsed := (k.Now() - epoch).Seconds()
	if elapsed < 9.5 || elapsed > 10.5 {
		t.Fatalf("memtest took %.2fs, want ≈10s", elapsed)
	}
}

func TestMemtestInstallsRegions(t *testing.T) {
	_, job := newJob(t, 2, 1)
	mt := &Memtest{ArrayBytes: 2e9, Passes: 1}
	if err := mt.Install(job); err != nil {
		t.Fatal(err)
	}
	for _, vm := range job.VMs() {
		r, ok := vm.Memory().Region("memtest")
		if !ok {
			t.Fatalf("%s missing region", vm.Name())
		}
		if r.Uniformity != MemtestUniformity || r.Bytes != 2e9 {
			t.Fatalf("region = %+v", r)
		}
	}
	mt.Uninstall(job)
	if _, ok := job.VMs()[0].Memory().Region("memtest"); ok {
		t.Fatal("uninstall failed")
	}
}

func TestMemtestRegionTooBig(t *testing.T) {
	_, job := newJob(t, 1, 1)
	mt := &Memtest{ArrayBytes: 25 * hw.GB, Passes: 1} // > 20 GB guest
	if err := mt.Install(job); err == nil {
		t.Fatal("expected overflow error")
	}
}

func TestNPBPresets(t *testing.T) {
	for _, kn := range []string{"BT", "CG", "FT", "LU"} {
		b, err := NPBClassD(kn)
		if err != nil {
			t.Fatal(err)
		}
		if b.Iterations <= 0 || b.ComputePerIter <= 0 || b.FootprintPerVM <= 0 {
			t.Fatalf("%s preset incomplete: %+v", kn, b)
		}
	}
	if _, err := NPBClassD("XX"); err == nil {
		t.Fatal("unknown kernel accepted")
	}
	// Paper: footprints range 2.3–16 GB per VM.
	cg, _ := NPBClassD("CG")
	ft, _ := NPBClassD("FT")
	if cg.FootprintPerVM != 2.3e9 || ft.FootprintPerVM != 16e9 {
		t.Fatal("footprint endpoints drifted from the paper's 2.3–16 GB")
	}
}

func TestNPBRunsAllPatterns(t *testing.T) {
	for _, kn := range []string{"BT", "CG", "FT", "LU"} {
		k, job := newJob(t, 2, 2)
		b, err := NPBClassD(kn)
		if err != nil {
			t.Fatal(err)
		}
		b.Iterations = 3
		var steps int
		b.IterDone = func(step int, elapsed sim.Time) {
			steps++
			if elapsed <= 0 {
				t.Errorf("%s step %d elapsed %v", kn, step, elapsed)
			}
		}
		done, err := Run(job, b)
		if err != nil {
			t.Fatal(err)
		}
		k.Run()
		if !done.Done() {
			t.Fatalf("%s incomplete", kn)
		}
		if steps != 3 {
			t.Fatalf("%s recorded %d steps", kn, steps)
		}
	}
}

func TestBcastReduceSeries(t *testing.T) {
	k, job := newJob(t, 4, 1)
	var series []sim.Time
	br := &BcastReduce{
		BytesPerNode: 1e9,
		Steps:        5,
		StepDone:     func(step int, e sim.Time) { series = append(series, e) },
	}
	done, err := Run(job, br)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !done.Done() {
		t.Fatal("incomplete")
	}
	if len(series) != 5 {
		t.Fatalf("%d steps recorded", len(series))
	}
	// Steady state: steps should be nearly identical.
	for i := 1; i < len(series); i++ {
		ratio := float64(series[i]) / float64(series[0])
		if ratio < 0.9 || ratio > 1.1 {
			t.Fatalf("step %d = %v deviates from step 0 = %v", i, series[i], series[0])
		}
	}
}

func TestBcastReduceBeforeStepHook(t *testing.T) {
	k, job := newJob(t, 2, 1)
	calls := 0
	br := &BcastReduce{
		BytesPerNode: 1e8,
		Steps:        3,
		BeforeStep:   func(p *sim.Proc, r *mpi.Rank, step int) { calls++ },
	}
	done, _ := Run(job, br)
	k.Run()
	if !done.Done() {
		t.Fatal("incomplete")
	}
	if calls != 3*job.Size() {
		t.Fatalf("BeforeStep called %d times, want %d", calls, 3*job.Size())
	}
}

func TestIMBPingPongLatencyAndBandwidth(t *testing.T) {
	k, job := newJob(t, 2, 1)
	bench := &IMB{Pattern: "pingpong", Sizes: []float64{64, 4e6}, Repetitions: 4}
	done, err := Run(job, bench)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if !done.Done() {
		t.Fatal("incomplete")
	}
	if len(bench.Results) != 2 {
		t.Fatalf("%d results", len(bench.Results))
	}
	small, big := bench.Results[0], bench.Results[1]
	// Small messages are latency-bound near the IB verbs latency (≈2 µs).
	if small.AvgTime < sim.Microsecond || small.AvgTime > 10*sim.Microsecond {
		t.Fatalf("64B latency = %v, want ≈2µs", small.AvgTime)
	}
	// Large messages approach device bandwidth (3.2 GB/s).
	if big.Throughput < 2.5e9 {
		t.Fatalf("4MB throughput = %.2f GB/s, want ≈3.2", big.Throughput/1e9)
	}
}

func TestIMBAllPatternsComplete(t *testing.T) {
	for _, pat := range []string{"pingpong", "exchange", "allreduce", "bcast", "alltoall"} {
		k, job := newJob(t, 2, 2)
		bench := &IMB{Pattern: pat, Sizes: []float64{1024, 1e5}, Repetitions: 2}
		done, err := Run(job, bench)
		if err != nil {
			t.Fatalf("%s: %v", pat, err)
		}
		k.Run()
		if !done.Done() {
			t.Fatalf("%s incomplete", pat)
		}
		if len(bench.Results) != 2 {
			t.Fatalf("%s: %d results", pat, len(bench.Results))
		}
		for _, r := range bench.Results {
			if r.AvgTime <= 0 {
				t.Fatalf("%s: zero time for %v bytes", pat, r.Bytes)
			}
		}
	}
}

func TestIMBUnknownPattern(t *testing.T) {
	_, job := newJob(t, 2, 1)
	if err := (&IMB{Pattern: "nope"}).Install(job); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}

func TestIMBDefaultSizes(t *testing.T) {
	sizes := DefaultIMBSizes()
	if len(sizes) == 0 || sizes[0] != 64 || sizes[len(sizes)-1] < 1e6 {
		t.Fatalf("sizes = %v", sizes)
	}
}
