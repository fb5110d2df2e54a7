package fabric

import (
	"errors"
	"testing"

	"repro/internal/sim"
)

func TestRouteSameSwitch(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	sw := n.NewSwitch("s", Ethernet)
	a := sw.NewAdapter("a", 100, 0)
	b := sw.NewAdapter("b", 100, 0)
	path, err := Route(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0] != a.UpLink() || path[1] != b.DownLink() {
		t.Fatalf("path = %v", path)
	}
}

func TestRouteAcrossTrunk(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	s1 := n.NewSwitch("s1", Ethernet)
	s2 := n.NewSwitch("s2", Ethernet)
	tr := n.Connect(s1, s2, 1000, 5*sim.Millisecond)
	a := s1.NewAdapter("a", 100, 0)
	b := s2.NewAdapter("b", 100, 0)
	path, err := Route(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ab, ba := tr.Links()
	if len(path) != 3 || path[0] != a.UpLink() || path[1] != ab || path[2] != b.DownLink() {
		t.Fatalf("path = %v", path)
	}
	// Reverse direction takes the other trunk link.
	rpath, _ := Route(b, a)
	if rpath[1] != ba {
		t.Fatal("reverse route does not use the B→A trunk link")
	}
	if PathLatency(path) != 5*sim.Millisecond {
		t.Fatalf("latency = %v", PathLatency(path))
	}
}

func TestRouteMultiHop(t *testing.T) {
	// s1 — s2 — s3 chain.
	k := sim.NewKernel()
	n := NewNetwork(k)
	s1 := n.NewSwitch("s1", Ethernet)
	s2 := n.NewSwitch("s2", Ethernet)
	s3 := n.NewSwitch("s3", Ethernet)
	n.Connect(s1, s2, 1000, sim.Millisecond)
	n.Connect(s2, s3, 1000, sim.Millisecond)
	a := s1.NewAdapter("a", 100, 0)
	c := s3.NewAdapter("c", 100, 0)
	path, err := Route(a, c)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 4 { // up + 2 trunks + down
		t.Fatalf("path length = %d", len(path))
	}
}

func TestRouteShortestPreferred(t *testing.T) {
	// Triangle: s1—s2, s2—s3 and a direct s1—s3. BFS must take the
	// direct hop.
	k := sim.NewKernel()
	n := NewNetwork(k)
	s1 := n.NewSwitch("s1", Ethernet)
	s2 := n.NewSwitch("s2", Ethernet)
	s3 := n.NewSwitch("s3", Ethernet)
	n.Connect(s1, s2, 1000, sim.Millisecond)
	n.Connect(s2, s3, 1000, sim.Millisecond)
	direct := n.Connect(s1, s3, 1000, sim.Millisecond)
	a := s1.NewAdapter("a", 100, 0)
	c := s3.NewAdapter("c", 100, 0)
	path, _ := Route(a, c)
	ab, _ := direct.Links()
	if len(path) != 3 || path[1] != ab {
		t.Fatalf("not the direct route: %v", path)
	}
}

func TestRouteNoRoute(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	s1 := n.NewSwitch("s1", Ethernet)
	s2 := n.NewSwitch("s2", Ethernet) // not connected
	a := s1.NewAdapter("a", 100, 0)
	b := s2.NewAdapter("b", 100, 0)
	if _, err := Route(a, b); err == nil {
		t.Fatal("expected ErrNoRoute")
	}
	if Reachable(a, b) {
		t.Fatal("unconnected switches reachable")
	}
}

// TestRouteCacheFollowsConnect: Route caches its answers per adapter
// pair, and Connect drops them, so a trunk added later opens a route that
// was refused and shortens one that was found.
func TestRouteCacheFollowsConnect(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	s1 := n.NewSwitch("s1", Ethernet)
	s2 := n.NewSwitch("s2", Ethernet)
	s3 := n.NewSwitch("s3", Ethernet)
	a := s1.NewAdapter("a", 100, 0)
	c := s3.NewAdapter("c", 100, 0)
	if _, err := Route(a, c); !errors.Is(err, ErrNoRoute) {
		t.Fatalf("unconnected: err = %v, want ErrNoRoute", err)
	}
	n.Connect(s1, s2, 1000, sim.Millisecond)
	n.Connect(s2, s3, 1000, sim.Millisecond)
	path, err := Route(a, c)
	if err != nil || len(path) != 4 {
		t.Fatalf("via s2: path %v, err %v; want 4 links", path, err)
	}
	if again, _ := Route(a, c); &again[0] != &path[0] {
		t.Fatal("a repeated Route did not return the cached path")
	}
	direct := n.Connect(s1, s3, 1000, sim.Millisecond)
	path, _ = Route(a, c)
	if ab, _ := direct.Links(); len(path) != 3 || path[1] != ab {
		t.Fatalf("after the direct trunk: path %v, want the direct hop", path)
	}
}

func TestTrunkTechMismatchPanics(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	s1 := n.NewSwitch("ib", InfiniBand)
	s2 := n.NewSwitch("eth", Ethernet)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Connect(s1, s2, 1000, 0)
}

func TestTrunkSharedByFlows(t *testing.T) {
	// Two transfers across one 100 B/s trunk share it max-min fairly.
	k := sim.NewKernel()
	n := NewNetwork(k)
	s1 := n.NewSwitch("s1", Ethernet)
	s2 := n.NewSwitch("s2", Ethernet)
	n.Connect(s1, s2, 100, 0)
	a1 := s1.NewAdapter("a1", 1000, 0)
	a2 := s1.NewAdapter("a2", 1000, 0)
	b1 := s2.NewAdapter("b1", 1000, 0)
	b2 := s2.NewAdapter("b2", 1000, 0)
	var d1, d2 sim.Time
	k.Go("f1", func(p *sim.Proc) {
		n.Transfer(p, Path(a1, b1), 1000, 0)
		d1 = p.Now()
	})
	k.Go("f2", func(p *sim.Proc) {
		n.Transfer(p, Path(a2, b2), 1000, 0)
		d2 = p.Now()
	})
	k.Run()
	// 1000 B each at 50 B/s → 20 s (trunk is the bottleneck).
	if !approx(d1, 20*sim.Second, 0.01) || !approx(d2, 20*sim.Second, 0.01) {
		t.Fatalf("d1=%v d2=%v, want ~20s (shared trunk)", d1, d2)
	}
}

func TestEthSegmentSpansSwitches(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	s1 := n.NewSwitch("dc1", Ethernet)
	s2 := n.NewSwitch("dc2", Ethernet)
	n.Connect(s1, s2, 1e9, 10*sim.Millisecond)
	seg := NewEthSegment(s1)
	nic1 := seg.NewNIC("n1", 1e9)
	nic2 := seg.NewNICOn(s2, "n2", 1e9)
	var done sim.Time
	k.Go("x", func(p *sim.Proc) {
		if err := nic1.Send(p, nic2.IP(), 1e9, 0, nil); err != nil {
			t.Errorf("Send: %v", err)
		}
		done = p.Now()
	})
	k.Run()
	// ≈1 s of wire + 10 ms WAN latency.
	if !approx(done, sim.Second+10*sim.Millisecond, 0.02) {
		t.Fatalf("done = %v", done)
	}
}

func TestIBSubnetSpansSwitches(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	s1 := n.NewSwitch("ib1", InfiniBand)
	s2 := n.NewSwitch("ib2", InfiniBand)
	n.Connect(s1, s2, 4e9, 5*sim.Microsecond)
	sub := NewIBSubnet(s1)
	h1 := sub.NewHCA("h1", 4e9)
	h2 := sub.NewHCAOn(s2, "h2", 4e9)
	h1.PowerOn()
	h2.PowerOn()
	var err error
	k.Go("x", func(p *sim.Proc) {
		h1.WaitActive(p)
		h2.WaitActive(p)
		qp1, _ := h1.CreateQP()
		qp2, _ := h2.CreateQP()
		if e := qp1.Connect(h2.LID(), qp2.QPN()); e != nil {
			err = e
			return
		}
		err = qp1.Send(p, 1e6)
	})
	k.Run()
	if err != nil {
		t.Fatalf("cross-switch IB send: %v", err)
	}
}
