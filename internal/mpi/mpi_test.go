package mpi

import (
	"math"
	"testing"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vmm"
)

// rig is a ready-to-use MPI testbed: nVMs VMs, one per IB node, each with
// a boot-attached HCA when withIB is true.
type rig struct {
	k   *sim.Kernel
	tb  *hw.Testbed
	ib  *hw.Cluster
	eth *hw.Cluster
	vms []*vmm.VM
	job *Job
}

func newRig(t testing.TB, nVMs, ranksPerVM int, withIB bool) *rig {
	t.Helper()
	k := sim.NewKernel()
	tb := hw.NewTestbed(k)
	ib := tb.AddCluster("ib", nVMs, hw.AGCNodeSpec)
	ethSpec := hw.AGCNodeSpec
	ethSpec.IBBandwidth = 0
	eth := tb.AddCluster("eth", nVMs, ethSpec)
	var vms []*vmm.VM
	for i := 0; i < nVMs; i++ {
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
		vms = append(vms, vm)
	}
	k.RunUntil(fabric.DefaultIBTrainingTime + sim.Second)
	job, err := NewJob(k, Config{VMs: vms, RanksPerVM: ranksPerVM})
	if err != nil {
		t.Fatal(err)
	}
	return &rig{k: k, tb: tb, ib: ib, eth: eth, vms: vms, job: job}
}

func approxT(a, b sim.Time, tolFrac float64) bool {
	if b == 0 {
		return a < 10*sim.Millisecond
	}
	diff := math.Abs(float64(a - b))
	return diff <= tolFrac*math.Abs(float64(b))+float64(10*sim.Millisecond)
}

func TestEagerSendRecv(t *testing.T) {
	r := newRig(t, 2, 1, true)
	var got float64
	r.job.Launch("eager", func(p *sim.Proc, rk *Rank) {
		switch rk.RankID() {
		case 0:
			if err := rk.Send(p, 1, 7, 1024); err != nil {
				t.Errorf("Send: %v", err)
			}
		case 1:
			b, err := rk.Recv(p, 0, 7)
			if err != nil {
				t.Errorf("Recv: %v", err)
			}
			got = b
		}
	})
	r.k.Run()
	if got != 1024 {
		t.Fatalf("received %v bytes, want 1024", got)
	}
}

func TestEagerBuffersWithoutReceiver(t *testing.T) {
	// Eager send completes even though the receiver posts much later.
	r := newRig(t, 2, 1, true)
	epoch := r.k.Now()
	var sendDone, recvDone sim.Time
	r.job.Launch("buffer", func(p *sim.Proc, rk *Rank) {
		switch rk.RankID() {
		case 0:
			rk.Send(p, 1, 1, 100)
			sendDone = p.Now() - epoch
		case 1:
			p.Sleep(10 * sim.Second)
			rk.Recv(p, 0, 1)
			recvDone = p.Now() - epoch
		}
	})
	r.k.Run()
	if sendDone >= sim.Second {
		t.Fatalf("eager send blocked until %v", sendDone)
	}
	if recvDone < 10*sim.Second {
		t.Fatalf("recv at %v", recvDone)
	}
}

func TestRendezvousBlocksUntilRecv(t *testing.T) {
	r := newRig(t, 2, 1, true)
	epoch := r.k.Now()
	var sendDone sim.Time
	r.job.Launch("rndv", func(p *sim.Proc, rk *Rank) {
		switch rk.RankID() {
		case 0:
			rk.Send(p, 1, 1, 1e9) // 1 GB: rendezvous
			sendDone = p.Now() - epoch
		case 1:
			p.Sleep(5 * sim.Second)
			rk.Recv(p, 0, 1)
		}
	})
	r.k.Run()
	// Sender cannot finish before the receiver posts at t=5s, plus the
	// ~0.31s wire time of 1 GB over 3.2 GB/s IB.
	if sendDone < 5*sim.Second {
		t.Fatalf("rendezvous send finished at %v, before receiver posted", sendDone)
	}
	want := 5*sim.Second + sim.FromSeconds(1e9/3.2e9)
	if !approxT(sendDone, want, 0.05) {
		t.Fatalf("send done at %v, want ≈%v", sendDone, want)
	}
}

func TestRecvWildcards(t *testing.T) {
	r := newRig(t, 2, 1, true)
	var tags []float64
	r.job.Launch("wild", func(p *sim.Proc, rk *Rank) {
		switch rk.RankID() {
		case 0:
			rk.Send(p, 1, 42, 111)
			rk.Send(p, 1, 43, 222)
		case 1:
			b1, _ := rk.Recv(p, AnySource, AnyTag)
			b2, _ := rk.Recv(p, 0, AnyTag)
			tags = append(tags, b1, b2)
		}
	})
	r.k.Run()
	if len(tags) != 2 || tags[0] != 111 || tags[1] != 222 {
		t.Fatalf("got %v (FIFO matching broken)", tags)
	}
}

func TestIBTransportPreferred(t *testing.T) {
	r := newRig(t, 2, 1, true)
	name, err := r.job.Rank(0).TransportTo(1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "openib" {
		t.Fatalf("transport = %s, want openib (exclusivity 1024 > 100)", name)
	}
}

func TestTCPFallbackWithoutIB(t *testing.T) {
	r := newRig(t, 2, 1, false)
	name, err := r.job.Rank(0).TransportTo(1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "tcp" {
		t.Fatalf("transport = %s, want tcp", name)
	}
}

func TestSMWithinVM(t *testing.T) {
	r := newRig(t, 1, 2, true)
	name, err := r.job.Rank(0).TransportTo(1)
	if err != nil {
		t.Fatal(err)
	}
	if name != "sm" {
		t.Fatalf("transport = %s, want sm for co-located ranks", name)
	}
}

func TestIBvsTCPBandwidthShape(t *testing.T) {
	// The same 1 GB transfer must be ≈2.5× faster on IB than on virtio/TCP
	// (3.2 GB/s vs ≈1.25 GB/s wire, plus vhost CPU cost).
	timeIt := func(withIB bool) sim.Time {
		r := newRig(t, 2, 1, withIB)
		var dur sim.Time
		r.job.Launch("bw", func(p *sim.Proc, rk *Rank) {
			start := p.Now()
			switch rk.RankID() {
			case 0:
				rk.Send(p, 1, 1, 1e9)
			case 1:
				rk.Recv(p, 0, 1)
				dur = p.Now() - start
			}
		})
		r.k.Run()
		return dur
	}
	ib, tcp := timeIt(true), timeIt(false)
	ratio := float64(tcp) / float64(ib)
	if ratio < 1.5 {
		t.Fatalf("TCP (%v) should be clearly slower than IB (%v); ratio=%.2f", tcp, ib, ratio)
	}
}

func TestBcastDelivers(t *testing.T) {
	r := newRig(t, 4, 2, true) // 8 ranks
	counts := 0
	r.job.Launch("bcast", func(p *sim.Proc, rk *Rank) {
		if err := rk.Bcast(p, 0, 1e6); err != nil {
			t.Errorf("rank %d bcast: %v", rk.RankID(), err)
			return
		}
		counts++
	})
	r.k.Run()
	if counts != 8 {
		t.Fatalf("bcast completed on %d/8 ranks", counts)
	}
}

func TestBcastNonZeroRoot(t *testing.T) {
	r := newRig(t, 4, 1, true)
	done := 0
	r.job.Launch("bcast", func(p *sim.Proc, rk *Rank) {
		if err := rk.Bcast(p, 2, 4096); err != nil {
			t.Errorf("rank %d: %v", rk.RankID(), err)
			return
		}
		done++
	})
	r.k.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	r := newRig(t, 4, 2, true)
	done := 0
	r.job.Launch("allreduce", func(p *sim.Proc, rk *Rank) {
		if err := rk.Reduce(p, 0, 1e6); err != nil {
			t.Errorf("reduce: %v", err)
			return
		}
		if err := rk.Allreduce(p, 1e6); err != nil {
			t.Errorf("allreduce: %v", err)
			return
		}
		done++
	})
	r.k.Run()
	if done != 8 {
		t.Fatalf("done = %d/8", done)
	}
}

func TestBarrierCollSynchronizes(t *testing.T) {
	r := newRig(t, 4, 1, true)
	epoch := r.k.Now()
	var exits []sim.Time
	r.job.Launch("bar", func(p *sim.Proc, rk *Rank) {
		p.Sleep(sim.Time(rk.RankID()) * sim.Second) // staggered arrival
		if err := rk.BarrierColl(p); err != nil {
			t.Errorf("barrier: %v", err)
			return
		}
		exits = append(exits, p.Now()-epoch)
	})
	r.k.Run()
	if len(exits) != 4 {
		t.Fatalf("exits = %v", exits)
	}
	for _, e := range exits {
		if e < 3*sim.Second {
			t.Fatalf("rank exited barrier at %v, before last arrival at 3s", e)
		}
	}
}

func TestAlltoallPairwise(t *testing.T) {
	r := newRig(t, 4, 2, true)
	done := 0
	r.job.Launch("a2a", func(p *sim.Proc, rk *Rank) {
		if err := rk.Alltoall(p, 1e5); err != nil {
			t.Errorf("alltoall: %v", err)
			return
		}
		done++
	})
	r.k.Run()
	if done != 8 {
		t.Fatalf("done = %d/8", done)
	}
}

func TestJobBarrierOOB(t *testing.T) {
	r := newRig(t, 4, 2, true)
	epoch := r.k.Now()
	var exits []sim.Time
	r.job.Launch("oob", func(p *sim.Proc, rk *Rank) {
		p.Sleep(sim.Time(rk.RankID()) * sim.Second)
		r.job.Barrier(p)
		exits = append(exits, p.Now()-epoch)
	})
	r.k.Run()
	for _, e := range exits {
		if e < 7*sim.Second {
			t.Fatalf("exit at %v before last arrival", e)
		}
	}
}

func TestSendRankRange(t *testing.T) {
	r := newRig(t, 2, 1, true)
	r.job.Launch("range", func(p *sim.Proc, rk *Rank) {
		if rk.RankID() != 0 {
			return
		}
		if err := rk.Send(p, 99, 0, 10); err == nil {
			t.Error("expected range error")
		}
	})
	r.k.Run()
}

func TestSendrecvNoDeadlock(t *testing.T) {
	// Both ranks exchange 1 GB simultaneously: must complete.
	r := newRig(t, 2, 1, true)
	done := 0
	r.job.Launch("xchg", func(p *sim.Proc, rk *Rank) {
		peer := 1 - rk.RankID()
		if _, err := rk.Sendrecv(p, peer, 5, 1e9, peer, 5); err != nil {
			t.Errorf("sendrecv: %v", err)
			return
		}
		done++
	})
	r.k.Run()
	if done != 2 {
		t.Fatalf("done = %d/2", done)
	}
}
