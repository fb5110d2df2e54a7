package symvirt

import (
	"errors"
	"testing"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vmm"
)

type rig struct {
	k    *sim.Kernel
	tb   *hw.Testbed
	ib   *hw.Cluster
	eth  *hw.Cluster
	vms  []*vmm.VM
	ctl  *Controller
	tgts []Target
}

func newRig(t *testing.T, nVMs, procsPerVM int) *rig {
	t.Helper()
	k := sim.NewKernel()
	tb := hw.NewTestbed(k)
	ib := tb.AddCluster("ib", nVMs, hw.AGCNodeSpec)
	ethSpec := hw.AGCNodeSpec
	ethSpec.IBBandwidth = 0
	eth := tb.AddCluster("eth", nVMs, ethSpec)
	nfs := storage.NewNFS("nfs0")
	nfs.MountAll(ib, eth)
	var vms []*vmm.VM
	var tgts []Target
	for i := 0; i < nVMs; i++ {
		vm, err := vmm.New(k, ib.Nodes[i], tb.Segment, vmm.Config{
			Name: ib.Nodes[i].Name + "/vm", VCPUs: 8, MemoryBytes: 20 * hw.GB,
		}, vmm.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		vm.SetStorage(nfs)
		if err := vm.AttachBootHCA(); err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
		tgts = append(tgts, Target{VM: vm, Coord: NewCoordinator(vm, procsPerVM)})
	}
	k.RunUntil(fabric.DefaultIBTrainingTime + sim.Second)
	ctl := NewController(k, tgts, 40*sim.Millisecond)
	return &rig{k: k, tb: tb, ib: ib, eth: eth, vms: vms, ctl: ctl, tgts: tgts}
}

func TestWaitAllBlocksUntilAllProcsWait(t *testing.T) {
	r := newRig(t, 2, 2)
	epoch := r.k.Now()
	var waitAllDone sim.Time
	// 4 guest procs enter Hold at staggered times; controller WaitAll
	// must return only after the last (t=+3s).
	for vi, tgt := range r.tgts {
		for pi := 0; pi < 2; pi++ {
			tgt := tgt
			delay := sim.Time(vi*2+pi) * sim.Second
			r.k.Go("guest", func(p *sim.Proc) {
				p.Sleep(delay)
				tgt.Coord.Hold(p)
			})
		}
	}
	r.k.Go("ctl", func(p *sim.Proc) {
		r.ctl.WaitAll(p)
		waitAllDone = p.Now() - epoch
		r.ctl.Signal(TokenProceed)
	})
	r.k.Run()
	if waitAllDone < 3*sim.Second {
		t.Fatalf("WaitAll returned at %v, before all procs were waiting", waitAllDone)
	}
}

func TestSignalBeforeReadyErrors(t *testing.T) {
	r := newRig(t, 1, 1)
	if err := r.ctl.Signal(TokenProceed); err == nil {
		t.Fatal("expected script-order error")
	}
}

func TestHoldSpansMultipleRounds(t *testing.T) {
	// TokenHold keeps the guest in the blocking point; TokenProceed
	// releases it. This drives Fig. 4's three-phase script.
	r := newRig(t, 1, 1)
	epoch := r.k.Now()
	var released sim.Time
	r.k.Go("guest", func(p *sim.Proc) {
		r.tgts[0].Coord.Hold(p)
		released = p.Now() - epoch
	})
	r.k.Go("ctl", func(p *sim.Proc) {
		for round := 0; round < 3; round++ {
			r.ctl.WaitAll(p)
			p.Sleep(sim.Second) // a VMM operation
			tok := TokenHold
			if round == 2 {
				tok = TokenProceed
			}
			if err := r.ctl.Signal(tok); err != nil {
				t.Errorf("signal round %d: %v", round, err)
			}
		}
	})
	r.k.Run()
	if released < 3*sim.Second {
		t.Fatalf("guest released at %v, want after 3 held rounds", released)
	}
}

func TestDeviceDetachAttachFanout(t *testing.T) {
	r := newRig(t, 2, 1)
	var err1, err2 error
	r.k.Go("ctl", func(p *sim.Proc) {
		err1 = r.ctl.DeviceDetach(p, "vf0")
		for _, vm := range r.vms {
			if vm.Monitor().HasPassthrough() {
				t.Errorf("%s still has passthrough after fanout detach", vm.Name())
			}
		}
		err2 = r.ctl.DeviceAttach(p, "vf0", "04:00.0")
		for _, vm := range r.vms {
			if !vm.Monitor().HasPassthrough() {
				t.Errorf("%s missing passthrough after fanout attach", vm.Name())
			}
		}
	})
	r.k.Run()
	if err1 != nil || err2 != nil {
		t.Fatalf("detach err=%v attach err=%v", err1, err2)
	}
}

func TestDetachSkipsVMsWithoutDevice(t *testing.T) {
	r := newRig(t, 2, 1)
	// Manually detach VM 0 first, then the fanout must still succeed.
	r.k.Go("ctl", func(p *sim.Proc) {
		fut, err := r.vms[0].Monitor().DeviceDel("vf0")
		if err != nil {
			t.Errorf("pre-detach: %v", err)
			return
		}
		fut.Wait(p)
		if err := r.ctl.DeviceDetach(p, "vf0"); err != nil {
			t.Errorf("fanout detach with missing device: %v", err)
		}
	})
	r.k.Run()
}

func TestAttachSkipsNodesWithoutHCA(t *testing.T) {
	r := newRig(t, 1, 1)
	// Move the VM to an Ethernet node first (detach + migrate).
	r.k.Go("ctl", func(p *sim.Proc) {
		fut, _ := r.vms[0].Monitor().DeviceDel("vf0")
		fut.Wait(p)
		mfut, err := r.vms[0].Migrate(r.eth.Nodes[0])
		if err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		mfut.Wait(p)
		if err := r.ctl.DeviceAttach(p, "vf0", "04:00.0"); err != nil {
			t.Errorf("attach on HCA-less node should be a no-op, got %v", err)
		}
		if r.vms[0].Monitor().HasPassthrough() {
			t.Error("passthrough appeared on an HCA-less node")
		}
	})
	r.k.Run()
}

func TestParallelMigrationFanout(t *testing.T) {
	r := newRig(t, 2, 1)
	epoch := r.k.Now()
	var done sim.Time
	r.k.Go("ctl", func(p *sim.Proc) {
		if err := r.ctl.DeviceDetach(p, "vf0"); err != nil {
			t.Errorf("detach: %v", err)
			return
		}
		start := p.Now()
		stats := make([]vmm.MigrationStats, len(r.vms))
		err := r.ctl.Migrate(p, "migrate", []*hw.Node{r.eth.Nodes[0], r.eth.Nodes[1]},
			func(ap *sim.Proc, i int, dst *hw.Node) error {
				fut, err := r.vms[i].Monitor().Migrate(dst)
				if err != nil {
					return err
				}
				stats[i] = fut.Wait(ap)
				return stats[i].Err
			})
		if err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		done = p.Now() - start
		for i, s := range stats {
			if s.Duration <= 0 {
				t.Errorf("VM %d migration duration %v", i, s.Duration)
			}
		}
	})
	r.k.Run()
	_ = epoch
	// Two disjoint node pairs migrate concurrently: wall time ≈ one
	// migration (scan-dominated ≈32s), not two.
	if done > 45*sim.Second {
		t.Fatalf("parallel migrations took %v — serialized?", done)
	}
	for i, vm := range r.vms {
		if vm.Node() != r.eth.Nodes[i] {
			t.Fatalf("VM %d on %s", i, vm.Node().Name)
		}
	}
}

func TestMigrateDestinationCountMismatch(t *testing.T) {
	r := newRig(t, 2, 1)
	r.k.Go("ctl", func(p *sim.Proc) {
		err := r.ctl.Migrate(p, "migrate", []*hw.Node{r.eth.Nodes[0]}, func(*sim.Proc, int, *hw.Node) error {
			t.Error("agent ran despite the destination-count mismatch")
			return nil
		})
		if !errors.Is(err, ErrScriptOrder) {
			t.Errorf("err = %v, want destination-count error", err)
		}
	})
	r.k.Run()
}

func TestColdMigrateFanout(t *testing.T) {
	r := newRig(t, 2, 1)
	// Cold migration needs the HCAs detached first (like live migration).
	r.k.Go("ctl", func(p *sim.Proc) {
		if err := r.ctl.DeviceDetach(p, "vf0"); err != nil {
			t.Errorf("detach: %v", err)
			return
		}
		stats := make([]vmm.ColdStats, len(r.vms))
		err := r.ctl.Migrate(p, "cold-migrate", []*hw.Node{r.eth.Nodes[0], r.eth.Nodes[1]},
			func(ap *sim.Proc, i int, dst *hw.Node) (err error) {
				stats[i], err = r.vms[i].ColdMigrate(ap, dst)
				return err
			})
		if err != nil {
			t.Errorf("cold migrate: %v", err)
			return
		}
		for i, s := range stats {
			if s.SaveTime <= 0 || s.RestoreTime <= 0 || s.ImageBytes <= 0 {
				t.Errorf("VM %d cold stats incomplete: %+v", i, s)
			}
		}
	})
	r.k.Run()
	for i, vm := range r.vms {
		if vm.Node() != r.eth.Nodes[i] {
			t.Fatalf("VM %d on %s", i, vm.Node().Name)
		}
		if vm.State().String() != "running" {
			t.Fatalf("VM %d not running after restore", i)
		}
	}
}

func TestTargetAccessors(t *testing.T) {
	r := newRig(t, 1, 1)
	if r.tgts[0].Coord.VM() != r.vms[0] {
		t.Fatal("Coordinator.VM broken")
	}
	if len(r.ctl.Targets()) != 1 {
		t.Fatal("Controller.Targets broken")
	}
}
