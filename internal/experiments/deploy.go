// Package experiments defines one constructor per table and figure of the
// paper's evaluation (§IV), each returning structured results that the
// ninjabench tool and the Go benchmarks render. EXPERIMENTS.md records the
// paper-vs-measured comparison these produce.
package experiments

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/mpi"
	"repro/internal/ninja"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vmm"
)

// Deployment is a ready-to-run virtualized cluster pair with an MPI job
// and a Ninja orchestrator, matching the paper's experimental setting
// (§IV-A): one VM per physical node, 8 vCPUs, 20 GB RAM, qcow2 image on
// NFS, VMM-bypass HCA attached at boot on InfiniBand nodes.
type Deployment struct {
	K    *sim.Kernel
	TB   *hw.Testbed
	Src  *hw.Cluster // cluster hosting the VMs initially
	Dst  *hw.Cluster // the other cluster
	NFS  *storage.NFS
	VMs  []*vmm.VM
	Job  *mpi.Job
	Orch *ninja.Orchestrator
	// Epoch is the simulated time after boot + link training, from which
	// experiment timings are measured.
	Epoch sim.Time
}

// DeployConfig shapes a deployment.
type DeployConfig struct {
	// NVMs is the number of VMs (= source nodes used).
	NVMs int
	// RanksPerVM is the MPI processes per VM.
	RanksPerVM int
	// GuestMemGB is guest RAM (paper: 20 GB).
	GuestMemGB float64
	// DstHasIB makes the destination cluster InfiniBand-equipped (the
	// Fig. 6/7 setting "both clusters use Infiniband only"); otherwise
	// the destination is the Ethernet cluster of Fig. 1/8.
	DstHasIB bool
	// AttachHCA boot-attaches the source HCAs ("Infiniband setting").
	AttachHCA bool
	// ContinueLikeRestart sets the recovery-migration MCA knob.
	ContinueLikeRestart bool
	// Params overrides the VMM cost model (zero value → defaults).
	Params *vmm.Params
}

// Deploy builds the testbed, boots the VMs and creates the job.
func Deploy(cfg DeployConfig) (*Deployment, error) {
	if cfg.NVMs <= 0 || cfg.NVMs > 8 {
		return nil, fmt.Errorf("experiments: NVMs %d outside the 8-node cluster", cfg.NVMs)
	}
	if cfg.GuestMemGB == 0 {
		cfg.GuestMemGB = 20
	}
	params := vmm.DefaultParams()
	if cfg.Params != nil {
		params = *cfg.Params
	}
	k := sim.NewKernel()
	tb := hw.NewTestbed(k)
	src := tb.AddCluster("agc-ib", 8, hw.AGCNodeSpec)
	dstSpec := hw.AGCNodeSpec
	if !cfg.DstHasIB {
		dstSpec.IBBandwidth = 0
	}
	dst := tb.AddCluster("agc-dst", 8, dstSpec)
	nfs := storage.NewNFS("nfs0")
	nfs.MountAll(src, dst)

	d := &Deployment{K: k, TB: tb, Src: src, Dst: dst, NFS: nfs}
	for i := 0; i < cfg.NVMs; i++ {
		vm, err := vmm.New(k, src.Nodes[i], tb.Segment, vmm.Config{
			Name:        fmt.Sprintf("vm%02d", i),
			VCPUs:       8,
			MemoryBytes: cfg.GuestMemGB * hw.GB,
		}, params)
		if err != nil {
			return nil, err
		}
		vm.SetStorage(nfs)
		if cfg.AttachHCA {
			if err := vm.AttachBootHCA(); err != nil {
				return nil, err
			}
		}
		d.VMs = append(d.VMs, vm)
	}
	// Let host/guest HCA links finish training before the experiment.
	d.Epoch = k.RunUntil(fabric.DefaultIBTrainingTime + sim.Second)

	job, err := mpi.NewJob(k, mpi.Config{
		VMs:                 d.VMs,
		RanksPerVM:          cfg.RanksPerVM,
		ContinueLikeRestart: cfg.ContinueLikeRestart,
	})
	if err != nil {
		return nil, err
	}
	d.Job = job
	d.Orch = ninja.New(job, ninja.Options{})
	return d, nil
}

// SrcNodes returns the first n source-cluster nodes.
func (d *Deployment) SrcNodes(n int) []*hw.Node { return d.Src.Nodes[:n] }

// DstNodes returns the first n destination-cluster nodes.
func (d *Deployment) DstNodes(n int) []*hw.Node { return d.Dst.Nodes[:n] }
