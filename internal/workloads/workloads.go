// Package workloads implements the paper's benchmark applications as
// simulation workloads: the memtest micro-benchmark (§IV-B), the NAS
// Parallel Benchmarks BT/CG/FT/LU class D (§IV-B3), and the
// broadcast+reduce iteration benchmark of the fallback/recovery experiment
// (§IV-C). Computation is charged to the simulated host CPUs and all
// communication goes through the simulated MPI stack, so migrations
// interact with the workloads exactly as in the paper.
package workloads

import (
	"fmt"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Workload is a benchmark program runnable on an MPI job.
type Workload interface {
	// Name identifies the workload.
	Name() string
	// Install declares the workload's guest memory regions.
	Install(job *mpi.Job) error
	// Body is the per-rank main function. It must call FTProbe at
	// iteration boundaries so pending checkpoints can coordinate.
	Body(p *sim.Proc, r *mpi.Rank)
}

// Run installs the workload and launches one process per rank. The
// returned future resolves when every rank has finished.
func Run(job *mpi.Job, w Workload) (*sim.Future[struct{}], error) {
	if err := w.Install(job); err != nil {
		return nil, err
	}
	return job.Launch(w.Name(), w.Body), nil
}

// installPerVM adds one region per VM, sized per VM (helper shared by the
// workloads; region name is prefixed to avoid collisions across runs).
func installPerVM(job *mpi.Job, name string, bytes, uniformity, dirtyRate float64) error {
	for _, vm := range job.VMs() {
		if _, err := vm.Memory().AddRegion(name, bytes, uniformity, dirtyRate); err != nil {
			return fmt.Errorf("workloads: install %s on %s: %w", name, vm.Name(), err)
		}
	}
	return nil
}

// uninstallPerVM removes the named region from every VM.
func uninstallPerVM(job *mpi.Job, name string) {
	for _, vm := range job.VMs() {
		vm.Memory().RemoveRegion(name)
	}
}

// MemWriteBandwidth is a single core's sequential write throughput on the
// paper's Xeon E5540 nodes (bytes per core-second).
const MemWriteBandwidth = 3e9

// Memtest sequentially writes a pattern over an in-guest array — the
// paper's memory-intensive micro-benchmark. Pattern pages are mostly
// uniform, so QEMU's zero-page compression absorbs ≈82 % of the footprint
// on migration (the calibration that reproduces Fig. 6's sub-linear
// growth; see EXPERIMENTS.md).
type Memtest struct {
	// ArrayBytes is the per-VM array size (2–16 GB in Fig. 6).
	ArrayBytes float64
	// Passes is how many full write passes to run.
	Passes int
	// Uniformity of the written pattern (default 0.82).
	Uniformity float64
}

// MemtestUniformity is the calibrated fraction of memtest pages that
// compress as uniform data.
const MemtestUniformity = 0.82

// Name implements Workload.
func (m *Memtest) Name() string { return "memtest" }

// Install implements Workload.
func (m *Memtest) Install(job *mpi.Job) error {
	u := m.Uniformity
	if u == 0 {
		u = MemtestUniformity
	}
	// The writer re-dirties the array at its full write bandwidth.
	return installPerVM(job, "memtest", m.ArrayBytes, u, MemWriteBandwidth)
}

// Body implements Workload: each pass writes the whole array; ranks probe
// for pending checkpoints between passes.
func (m *Memtest) Body(p *sim.Proc, r *mpi.Rank) {
	perRank := m.ArrayBytes / float64(r.Job().RanksPerVM())
	r.ComputeLoop(p, m.Passes, perRank/MemWriteBandwidth)
}

// Uninstall removes the workload's regions (between experiment trials).
func (m *Memtest) Uninstall(job *mpi.Job) { uninstallPerVM(job, "memtest") }
