package ninja

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vmm"
)

// rig is a complete Ninja testbed: nVMs VMs on the IB cluster running an
// MPI job, an orchestrator, and an iteration-counting workload.
type rig struct {
	k     *sim.Kernel
	tb    *hw.Testbed
	ib    *hw.Cluster
	eth   *hw.Cluster
	nfs   *storage.NFS
	vms   []*vmm.VM
	job   *mpi.Job
	orch  *Orchestrator
	iters []int // per-rank completed iterations
}

func newRig(t *testing.T, nVMs, ranksPerVM int, clr bool) *rig {
	t.Helper()
	k := sim.NewKernel()
	tb, ibc, ethc := hw.NewAGC(k)
	nfs := storage.NewNFS("nfs0")
	nfs.MountAll(ibc, ethc)
	var vms []*vmm.VM
	for i := 0; i < nVMs; i++ {
		vm, err := vmm.New(k, ibc.Nodes[i], tb.Segment, vmm.Config{
			Name: ibc.Nodes[i].Name + "/vm", VCPUs: 8, MemoryBytes: 20 * hw.GB,
		}, vmm.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		vm.SetStorage(nfs)
		if err := vm.AttachBootHCA(); err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	k.RunUntil(fabric.DefaultIBTrainingTime + sim.Second)
	job, err := mpi.NewJob(k, mpi.Config{VMs: vms, RanksPerVM: ranksPerVM, ContinueLikeRestart: clr})
	if err != nil {
		t.Fatal(err)
	}
	orch := New(job, Options{})
	return &rig{k: k, tb: tb, ib: ibc, eth: ethc, nfs: nfs, vms: vms, job: job, orch: orch,
		iters: make([]int, job.Size())}
}

// runApp launches an iteration loop (probe + bcast) on every rank.
func (r *rig) runApp(t *testing.T, iterations int) *sim.Future[struct{}] {
	t.Helper()
	return r.job.Launch("app", func(p *sim.Proc, rk *mpi.Rank) {
		for i := 0; i < iterations; i++ {
			rk.FTProbe(p)
			rk.Compute(p, 0.5) // half a core-second of "application work"
			if err := rk.Bcast(p, 0, 1e6); err != nil {
				t.Errorf("rank %d iter %d: %v", rk.RankID(), i, err)
				return
			}
			r.iters[rk.RankID()]++
		}
	})
}

func (r *rig) ethDsts(n int) []*hw.Node {
	dsts := make([]*hw.Node, n)
	for i := range dsts {
		dsts[i] = r.eth.Nodes[i]
	}
	return dsts
}

func (r *rig) ibDsts(n int) []*hw.Node {
	dsts := make([]*hw.Node, n)
	for i := range dsts {
		dsts[i] = r.ib.Nodes[i]
	}
	return dsts
}

func TestFallbackMigrationEndToEnd(t *testing.T) {
	r := newRig(t, 4, 1, true)
	app := r.runApp(t, 50)
	var rep Report
	var err error
	r.k.Go("driver", func(p *sim.Proc) {
		p.Sleep(2 * sim.Second)
		rep, err = r.orch.Migrate(p, r.ethDsts(4))
	})
	r.k.Run()
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if !app.Done() {
		t.Fatal("app did not finish")
	}
	// Every VM moved; process count unchanged; iteration counters are all
	// 50 — "without restarting the processes".
	for i, vm := range r.vms {
		if vm.Node() != r.eth.Nodes[i] {
			t.Fatalf("VM %d on %s", i, vm.Node().Name)
		}
	}
	for rk, n := range r.iters {
		if n != 50 {
			t.Fatalf("rank %d completed %d/50 iterations", rk, n)
		}
	}
	// Transport switched to tcp.
	if name, _ := r.job.Rank(0).TransportTo(1); name != "tcp" {
		t.Fatalf("transport after fallback = %s, want tcp", name)
	}
	// Breakdown shape: detach is seconds-scale (IB unbind), attach ≈0 (no
	// HCA at destination), link-up ≈0 (Ethernet), migration tens of
	// seconds (20 GB scan).
	if rep.Detach < 2*sim.Second {
		t.Fatalf("detach = %v, want ≳2.5s×noise", rep.Detach)
	}
	if rep.Attach != 0 {
		t.Fatalf("attach = %v, want 0 on Ethernet destination", rep.Attach)
	}
	if rep.Linkup > sim.Second {
		t.Fatalf("linkup = %v, want ≈0 on Ethernet destination", rep.Linkup)
	}
	if rep.Migration < 20*sim.Second || rep.Migration > 60*sim.Second {
		t.Fatalf("migration = %v, want tens of seconds", rep.Migration)
	}
	if rep.Coordination > sim.Second {
		t.Fatalf("coordination = %v, want negligible", rep.Coordination)
	}
}

func TestRecoveryMigrationRestoresInfiniBand(t *testing.T) {
	r := newRig(t, 2, 1, true)
	app := r.runApp(t, 60)
	var fall, rec Report
	var err1, err2 error
	r.k.Go("driver", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		fall, err1 = r.orch.Migrate(p, r.ethDsts(2))
		p.Sleep(sim.Second)
		rec, err2 = r.orch.Migrate(p, r.ibDsts(2))
	})
	r.k.Run()
	if err1 != nil || err2 != nil {
		t.Fatalf("fallback err=%v recovery err=%v", err1, err2)
	}
	if !app.Done() {
		t.Fatal("app incomplete")
	}
	if name, _ := r.job.Rank(0).TransportTo(1); name != "openib" {
		t.Fatalf("transport after recovery = %s, want openib", name)
	}
	// Recovery to an IB destination pays attach + ≈30 s link-up.
	if rec.Attach < sim.Second {
		t.Fatalf("recovery attach = %v, want seconds-scale", rec.Attach)
	}
	if rec.Linkup < 28*sim.Second || rec.Linkup > 32*sim.Second {
		t.Fatalf("recovery linkup = %v, want ≈30s", rec.Linkup)
	}
	if fall.Linkup > sim.Second {
		t.Fatalf("fallback linkup = %v, want ≈0", fall.Linkup)
	}
	for i, vm := range r.vms {
		if vm.Node() != r.ib.Nodes[i] {
			t.Fatalf("VM %d not home: %s", i, vm.Node().Name)
		}
	}
}

func TestRecoveryWithoutCLRStaysOnTCP(t *testing.T) {
	// The paper's ablation: without ompi_cr_continue_like_restart, the
	// recovery migration leaves the job on tcp despite InfiniBand being
	// available again.
	r := newRig(t, 2, 1, false)
	app := r.runApp(t, 60)
	r.k.Go("driver", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		if _, err := r.orch.Migrate(p, r.ethDsts(2)); err != nil {
			t.Errorf("fallback: %v", err)
			return
		}
		p.Sleep(sim.Second)
		if _, err := r.orch.Migrate(p, r.ibDsts(2)); err != nil {
			t.Errorf("recovery: %v", err)
		}
	})
	r.k.Run()
	if !app.Done() {
		t.Fatal("app incomplete")
	}
	if name, _ := r.job.Rank(0).TransportTo(1); name != "tcp" {
		t.Fatalf("transport = %s, want tcp (stale selection without the knob)", name)
	}
}

func TestSelfMigrationTableIIShape(t *testing.T) {
	// IB→IB self-migration: hotplug = detach + attach + confirms ≈ 3.9 s
	// (no migration noise on a self-migration), linkup ≈ 30 s.
	r := newRig(t, 2, 1, true)
	app := r.runApp(t, 30)
	var rep Report
	r.k.Go("driver", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		var err error
		rep, err = r.orch.SelfMigrate(p)
		if err != nil {
			t.Errorf("SelfMigrate: %v", err)
		}
	})
	r.k.Run()
	if !app.Done() {
		t.Fatal("app incomplete")
	}
	if rep.Hotplug() < 3500*sim.Millisecond || rep.Hotplug() > 4500*sim.Millisecond {
		t.Fatalf("IB→IB self-migration hotplug = %v, want ≈3.9s (Table II: 3.88s)", rep.Hotplug())
	}
	if rep.Linkup < 28*sim.Second || rep.Linkup > 32*sim.Second {
		t.Fatalf("linkup = %v, want ≈30s (Table II: 29.91s)", rep.Linkup)
	}
	if name, _ := r.job.Rank(0).TransportTo(1); name != "openib" {
		t.Fatalf("transport = %s, want openib after IB→IB", name)
	}
}

func TestCrossNodeHotplugNoise(t *testing.T) {
	// Fig. 6: hotplug during a real (cross-node) migration is ≈3× the
	// Table II self-migration value.
	self := newRig(t, 1, 1, true)
	appS := self.runApp(t, 20)
	var selfRep Report
	self.k.Go("driver", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		var err error
		selfRep, err = self.orch.SelfMigrate(p)
		if err != nil {
			t.Errorf("SelfMigrate: %v", err)
		}
	})
	self.k.Run()
	if !appS.Done() {
		t.Fatal("self app incomplete")
	}

	cross := newRig(t, 1, 1, true)
	appC := cross.runApp(t, 20)
	var crossRep Report
	cross.k.Go("driver", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		var err error
		crossRep, err = cross.orch.Migrate(p, []*hw.Node{cross.ib.Nodes[1]})
		if err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	cross.k.Run()
	if !appC.Done() {
		t.Fatal("cross app incomplete")
	}
	ratio := float64(crossRep.Hotplug()) / float64(selfRep.Hotplug())
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("hotplug noise ratio = %.2f (self %v, cross %v), want ≈3", ratio, selfRep.Hotplug(), crossRep.Hotplug())
	}
}

func TestDestinationCountMismatch(t *testing.T) {
	r := newRig(t, 2, 1, true)
	r.runApp(t, 5)
	r.k.Go("driver", func(p *sim.Proc) {
		if _, err := r.orch.Migrate(p, r.ethDsts(1)); err == nil {
			t.Error("expected shape error")
		}
	})
	r.k.Run()
}

func TestMultiRankPerVM(t *testing.T) {
	// 2 VMs × 4 ranks: all 8 processes must coordinate (the coordinator
	// waits for every rank in the VM before announcing ready).
	r := newRig(t, 2, 4, true)
	app := r.runApp(t, 20)
	r.k.Go("driver", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		if _, err := r.orch.Migrate(p, r.ethDsts(2)); err != nil {
			t.Errorf("Migrate: %v", err)
		}
	})
	r.k.Run()
	if !app.Done() {
		t.Fatal("app incomplete")
	}
	for rk, n := range r.iters {
		if n != 20 {
			t.Fatalf("rank %d: %d/20 iterations", rk, n)
		}
	}
	// Intra-VM stays sm; inter-VM switched to tcp.
	if name, _ := r.job.Rank(0).TransportTo(1); name != "sm" {
		t.Fatalf("intra-VM transport = %s, want sm", name)
	}
	if name, _ := r.job.Rank(0).TransportTo(4); name != "tcp" {
		t.Fatalf("inter-VM transport = %s, want tcp", name)
	}
}

func TestPrewarmedAttachSkipsLinkup(t *testing.T) {
	// §V optimization ablation: with IBPrewarmedAttach the recovery
	// link-up cost collapses from ≈30 s to ≈0.
	k := sim.NewKernel()
	tb, ibc, ethc := hw.NewAGC(k)
	nfs := storage.NewNFS("nfs0")
	nfs.MountAll(ibc, ethc)
	params := vmm.DefaultParams()
	params.IBPrewarmedAttach = true
	var vms []*vmm.VM
	for i := 0; i < 2; i++ {
		vm, err := vmm.New(k, ibc.Nodes[i], tb.Segment, vmm.Config{
			Name: ibc.Nodes[i].Name + "/vm", VCPUs: 8, MemoryBytes: 20 * hw.GB,
		}, params)
		if err != nil {
			t.Fatal(err)
		}
		vm.SetStorage(nfs)
		vm.AttachBootHCA()
		vms = append(vms, vm)
	}
	k.RunUntil(fabric.DefaultIBTrainingTime + sim.Second)
	job, _ := mpi.NewJob(k, mpi.Config{VMs: vms, RanksPerVM: 1, ContinueLikeRestart: true})
	orch := New(job, Options{})
	job.Launch("app", func(p *sim.Proc, rk *mpi.Rank) {
		for i := 0; i < 20; i++ {
			rk.FTProbe(p)
			if err := rk.Bcast(p, 0, 1e5); err != nil {
				t.Errorf("bcast: %v", err)
				return
			}
		}
	})
	var rep Report
	k.Go("driver", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		var err error
		rep, err = orch.SelfMigrate(p)
		if err != nil {
			t.Errorf("SelfMigrate: %v", err)
		}
	})
	k.Run()
	if rep.Linkup > sim.Second {
		t.Fatalf("prewarmed linkup = %v, want ≈0", rep.Linkup)
	}
	if name, _ := job.Rank(0).TransportTo(1); name != "openib" {
		t.Fatalf("transport = %s, want openib", name)
	}
}
