package btl

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vmm"
)

// ep is a minimal Endpoint for unit-testing modules.
type ep struct {
	id int
	vm *vmm.VM
}

func (e *ep) RankID() int { return e.id }
func (e *ep) VM() *vmm.VM { return e.vm }

func newPair(t *testing.T, withIB bool) (*sim.Kernel, *ep, *ep) {
	t.Helper()
	k := sim.NewKernel()
	tb := hw.NewTestbed(k)
	ib := tb.AddCluster("ib", 2, hw.AGCNodeSpec)
	var eps []*ep
	for i := 0; i < 2; i++ {
		vm, err := vmm.New(k, ib.Nodes[i], tb.Segment, vmm.Config{
			Name: ib.Nodes[i].Name + "/vm", VCPUs: 8, MemoryBytes: 20 * hw.GB,
		}, vmm.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if withIB {
			if err := vm.AttachBootHCA(); err != nil {
				t.Fatal(err)
			}
		}
		eps = append(eps, &ep{id: i, vm: vm})
	}
	k.RunUntil(fabric.DefaultIBTrainingTime + sim.Second)
	return k, eps[0], eps[1]
}

func TestSelectionOrder(t *testing.T) {
	_, a, b := newPair(t, true)
	set := NewSet(a, NewTCP(a), NewSM(a), NewOpenIB(a))
	mods := set.Modules()
	if mods[0].Name() != "sm" || mods[1].Name() != "openib" || mods[2].Name() != "tcp" {
		t.Fatalf("module order: %s %s %s", mods[0].Name(), mods[1].Name(), mods[2].Name())
	}
	m, err := set.Select(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "openib" {
		t.Fatalf("selected %s, want openib (sm unreachable across VMs)", m.Name())
	}
	if cached, ok := set.Selected(b.RankID()); !ok || cached != m {
		t.Fatal("selection not cached")
	}
}

func TestSelectionFallsBackToTCP(t *testing.T) {
	_, a, b := newPair(t, false)
	set := NewSet(a, NewSM(a), NewOpenIB(a), NewTCP(a))
	m, err := set.Select(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "tcp" {
		t.Fatalf("selected %s, want tcp", m.Name())
	}
}

func TestNoModuleError(t *testing.T) {
	k, a, b := newPair(t, false)
	// Take the Ethernet device down too: nothing reaches the peer.
	nic, _ := b.VM().Guest().EthDevice()
	nic.SetUp(false)
	_ = k
	set := NewSet(a, NewOpenIB(a), NewTCP(a))
	if _, err := set.Select(b); err == nil {
		t.Fatal("expected ErrNoModule")
	}
}

func TestOpenIBTransferAndReconnectAfterReset(t *testing.T) {
	k, a, b := newPair(t, true)
	mod := NewOpenIB(a)
	var firstErr, secondErr, thirdErr error
	k.Go("x", func(p *sim.Proc) {
		firstErr = Transfer(p, mod, b, 1e6)
		// Peer HCA resets (what a detach/attach cycle does).
		hca, _ := b.VM().Guest().IBDevice()
		hca.PowerOff()
		hca.PowerOn()
		hca.WaitActive(p)
		secondErr = Transfer(p, mod, b, 1e6) // stale QP → error, cache dropped
		thirdErr = Transfer(p, mod, b, 1e6)  // reconnects with fresh LID/QPN
	})
	k.Run()
	if firstErr != nil {
		t.Fatalf("first transfer: %v", firstErr)
	}
	if secondErr == nil {
		t.Fatal("transfer over stale QP should fail")
	}
	if thirdErr != nil {
		t.Fatalf("reconnect transfer: %v", thirdErr)
	}
}

func TestReleasedModuleUnusable(t *testing.T) {
	k, a, b := newPair(t, true)
	mod := NewOpenIB(a)
	mod.Release()
	if mod.Usable() {
		t.Fatal("released module still usable")
	}
	var err error
	k.Go("x", func(p *sim.Proc) { err = Transfer(p, mod, b, 10) })
	k.Run()
	if err != ErrReleased {
		t.Fatalf("err = %v, want ErrReleased", err)
	}
	mod.Reinit()
	if !mod.Usable() {
		t.Fatal("reinit did not restore usability")
	}
	if mod.ConnectionCount() != 0 {
		t.Fatal("reinit kept stale connections")
	}
}

func TestReconstructClearsSelection(t *testing.T) {
	_, a, b := newPair(t, true)
	set := NewSet(a, NewOpenIB(a), NewTCP(a))
	set.Select(b)
	set.ReleaseAll()
	if _, ok := set.Selected(b.RankID()); !ok {
		t.Fatal("ReleaseAll must keep the selection cache")
	}
	set.Reconstruct()
	if _, ok := set.Selected(b.RankID()); ok {
		t.Fatal("Reconstruct must clear the selection cache")
	}
}

func TestSMOnlyWithinVM(t *testing.T) {
	_, a, b := newPair(t, true)
	sm := NewSM(a)
	if sm.Reachable(b) {
		t.Fatal("sm reachable across VMs")
	}
	self := &ep{id: 5, vm: a.VM()}
	if !sm.Reachable(self) {
		t.Fatal("sm unreachable within VM")
	}
}

func TestSMTransferChargesCPU(t *testing.T) {
	k, a, _ := newPair(t, true)
	peer := &ep{id: 9, vm: a.VM()}
	sm := NewSM(a)
	var dur sim.Time
	k.Go("x", func(p *sim.Proc) {
		start := p.Now()
		if err := Transfer(p, sm, peer, 3e9); err != nil { // 3 GB at 3 GB/s
			t.Errorf("Transfer: %v", err)
		}
		dur = p.Now() - start
	})
	k.Run()
	if dur < 900*sim.Millisecond || dur > 1100*sim.Millisecond {
		t.Fatalf("sm copy of 3GB took %v, want ≈1s", dur)
	}
}

func TestUsableNames(t *testing.T) {
	_, a, _ := newPair(t, true)
	set := NewSet(a, NewSM(a), NewOpenIB(a), NewTCP(a))
	names := set.UsableNames()
	if len(names) != 3 || names[0] != "sm" || names[1] != "openib" || names[2] != "tcp" {
		t.Fatalf("UsableNames = %v", names)
	}
}

func TestTCPTransferChargesVhost(t *testing.T) {
	k, a, b := newPair(t, false)
	mod := NewTCP(a)
	if !mod.Usable() || !mod.Reachable(b) {
		t.Fatal("tcp should be usable between VMs")
	}
	var dur sim.Time
	k.Go("x", func(p *sim.Proc) {
		start := p.Now()
		if err := Transfer(p, mod, b, 1e9); err != nil {
			t.Errorf("Transfer: %v", err)
		}
		dur = p.Now() - start
	})
	k.Run()
	// 1 GB through the 0.5 GB/s-per-core vhost datapath: ≈2 s (CPU-bound,
	// wire would take 0.8 s).
	if dur < 1800*sim.Millisecond || dur > 2400*sim.Millisecond {
		t.Fatalf("tcp transfer took %v, want ≈2s (vhost-bound)", dur)
	}
}

func TestTCPOvercommitPenalty(t *testing.T) {
	_, a, _ := newPair(t, false)
	if p := overcommitPenalty(a); p != 1 {
		t.Fatalf("idle host penalty = %v, want 1", p)
	}
	a.VM().HostCPU().AddBackground(16) // 2× over-commit on 8 cores
	p := overcommitPenalty(a)
	if p < 4 || p > 5 {
		t.Fatalf("2× over-commit penalty = %v, want ≈(17/8)²", p)
	}
	a.VM().HostCPU().AddBackground(-16)
}

func TestOpenIBParavirtSlower(t *testing.T) {
	timeIt := func(paravirt bool) sim.Time {
		k, a, b := newPair(t, true)
		mod := NewOpenIB(a)
		if paravirt {
			pv := DefaultParavirtCosts
			mod.SetParavirt(&pv)
		}
		var dur sim.Time
		k.Go("x", func(p *sim.Proc) {
			start := p.Now()
			if err := Transfer(p, mod, b, 1e9); err != nil {
				t.Errorf("Transfer: %v", err)
			}
			dur = p.Now() - start
		})
		k.Run()
		return dur
	}
	bypass, pv := timeIt(false), timeIt(true)
	if pv <= bypass {
		t.Fatalf("paravirt (%v) should be slower than bypass (%v)", pv, bypass)
	}
}

func TestSMReleaseReinit(t *testing.T) {
	k, a, _ := newPair(t, true)
	peer := &ep{id: 3, vm: a.VM()}
	sm := NewSM(a)
	sm.Release()
	if sm.Usable() {
		t.Fatal("released sm usable")
	}
	var err error
	k.Go("x", func(p *sim.Proc) { err = Transfer(p, sm, peer, 10) })
	k.Run()
	if err != ErrReleased {
		t.Fatalf("err = %v", err)
	}
	sm.Reinit()
	if !sm.Usable() {
		t.Fatal("reinit failed")
	}
}

func TestSMUnreachablePeerError(t *testing.T) {
	k, a, b := newPair(t, true)
	sm := NewSM(a)
	var err error
	k.Go("x", func(p *sim.Proc) { err = Transfer(p, sm, b, 10) })
	k.Run()
	if err != ErrUnreachable {
		t.Fatalf("err = %v, want ErrUnreachable", err)
	}
}
