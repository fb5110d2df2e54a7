package fabric

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func approx(a, b sim.Time, tolFrac float64) bool {
	if b == 0 {
		return a < sim.Millisecond
	}
	diff := math.Abs(float64(a - b))
	return diff <= tolFrac*math.Abs(float64(b))+float64(sim.Millisecond)
}

func TestSingleFlowFullBandwidth(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	l := n.NewLink("l", 100, 0) // 100 B/s
	var done sim.Time
	k.Go("x", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l}, 1000, 0)
		done = p.Now()
	})
	k.Run()
	if !approx(done, 10*sim.Second, 1e-6) {
		t.Fatalf("done = %v, want ~10s", done)
	}
}

func TestFlowLatencyOnly(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	l := n.NewLink("l", 1e9, 3*sim.Second)
	var done sim.Time
	k.Go("x", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l}, 0, 0)
		done = p.Now()
	})
	k.Run()
	if done != 3*sim.Second {
		t.Fatalf("done = %v, want 3s", done)
	}
}

func TestEmptyPathImmediate(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	var done sim.Time = -1
	k.Go("x", func(p *sim.Proc) {
		n.Transfer(p, nil, 1e9, 0)
		done = p.Now()
	})
	k.Run()
	if done != 0 {
		t.Fatalf("done = %v, want 0", done)
	}
}

func TestTwoFlowsFairShare(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	l := n.NewLink("l", 100, 0)
	var d1, d2 sim.Time
	k.Go("a", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l}, 1000, 0)
		d1 = p.Now()
	})
	k.Go("b", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l}, 1000, 0)
		d2 = p.Now()
	})
	k.Run()
	// Both at 50 B/s → both finish at 20s.
	if !approx(d1, 20*sim.Second, 1e-3) || !approx(d2, 20*sim.Second, 1e-3) {
		t.Fatalf("d1=%v d2=%v, want ~20s", d1, d2)
	}
}

func TestShortFlowFreesBandwidth(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	l := n.NewLink("l", 100, 0)
	var dShort, dLong sim.Time
	k.Go("short", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l}, 500, 0) // at 50 B/s → done at 10s
		dShort = p.Now()
	})
	k.Go("long", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l}, 1500, 0) // 500 by t=10, then 1000 at 100 B/s → 20s
		dLong = p.Now()
	})
	k.Run()
	if !approx(dShort, 10*sim.Second, 1e-3) {
		t.Fatalf("dShort = %v, want ~10s", dShort)
	}
	if !approx(dLong, 20*sim.Second, 1e-3) {
		t.Fatalf("dLong = %v, want ~20s", dLong)
	}
}

func TestMaxMinBottleneck(t *testing.T) {
	// Flow A uses links L1(100)+L2(100); Flow B uses only L2.
	// Max-min: both constrained by L2 → 50/50. After B ends, A gets 100.
	k := sim.NewKernel()
	n := NewNetwork(k)
	l1 := n.NewLink("l1", 100, 0)
	l2 := n.NewLink("l2", 100, 0)
	var dA, dB sim.Time
	k.Go("A", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l1, l2}, 1000, 0)
		dA = p.Now()
	})
	k.Go("B", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l2}, 500, 0)
		dB = p.Now()
	})
	k.Run()
	if !approx(dB, 10*sim.Second, 1e-3) {
		t.Fatalf("dB = %v, want ~10s", dB)
	}
	// A: 500 bytes by t=10 at 50 B/s, remaining 500 at 100 B/s → 15s.
	if !approx(dA, 15*sim.Second, 1e-3) {
		t.Fatalf("dA = %v, want ~15s", dA)
	}
}

func TestMaxMinUnusedShareRedistributed(t *testing.T) {
	// L(90) carries capped flow A (cap 10) and uncapped B.
	// Max-min: A=10, B=80.
	k := sim.NewKernel()
	n := NewNetwork(k)
	l := n.NewLink("l", 90, 0)
	var dA, dB sim.Time
	k.Go("A", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l}, 100, 10) // 100 bytes at 10 B/s → 10s
		dA = p.Now()
	})
	k.Go("B", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l}, 800, 0) // 800 at 80 B/s → 10s
		dB = p.Now()
	})
	k.Run()
	if !approx(dA, 10*sim.Second, 1e-3) {
		t.Fatalf("dA = %v, want ~10s", dA)
	}
	if !approx(dB, 10*sim.Second, 1e-3) {
		t.Fatalf("dB = %v, want ~10s", dB)
	}
}

func TestFlowCapAlone(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	l := n.NewLink("l", 1000, 0)
	var done sim.Time
	k.Go("x", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l}, 1000, 100) // capped at 100 B/s → 10s
		done = p.Now()
	})
	k.Run()
	if !approx(done, 10*sim.Second, 1e-3) {
		t.Fatalf("done = %v, want ~10s", done)
	}
}

func TestCancelFlow(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	l := n.NewLink("l", 100, 0)
	f := n.StartFlow([]*Link{l}, 1e6, 0)
	k.Schedule(sim.Second, func() { n.Cancel(f) })
	k.Run()
	if f.Done().Done() {
		t.Fatal("cancelled flow resolved its future")
	}
	if n.ActiveFlows() != 0 {
		t.Fatalf("ActiveFlows = %d, want 0", n.ActiveFlows())
	}
}

func TestCancelReleasesBandwidth(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	l := n.NewLink("l", 100, 0)
	victim := n.StartFlow([]*Link{l}, 1e9, 0)
	var done sim.Time
	k.Go("x", func(p *sim.Proc) {
		n.Transfer(p, []*Link{l}, 1000, 0)
		done = p.Now()
	})
	k.Schedule(10*sim.Second, func() { n.Cancel(victim) })
	k.Run()
	// First 10s shared (50 B/s → 500 B), then full rate: 500 B at 100 B/s
	// → done at 15s.
	if !approx(done, 15*sim.Second, 1e-3) {
		t.Fatalf("done = %v, want ~15s", done)
	}
}

func TestCrossNetworkLinkPanics(t *testing.T) {
	k := sim.NewKernel()
	n1, n2 := NewNetwork(k), NewNetwork(k)
	l2 := n2.NewLink("foreign", 1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n1.StartFlow([]*Link{l2}, 1, 0)
}

// Property: N equal uncapped flows through one link all finish together at
// N*bytes/bw, regardless of N.
func TestFairShareProperty(t *testing.T) {
	f := func(nRaw uint8) bool {
		nFlows := int(nRaw%6) + 1
		k := sim.NewKernel()
		n := NewNetwork(k)
		l := n.NewLink("l", 1000, 0)
		var finishes []sim.Time
		for i := 0; i < nFlows; i++ {
			k.Go("f", func(p *sim.Proc) {
				n.Transfer(p, []*Link{l}, 2000, 0)
				finishes = append(finishes, p.Now())
			})
		}
		k.Run()
		want := sim.FromSeconds(float64(nFlows) * 2.0)
		for _, fin := range finishes {
			if !approx(fin, want, 1e-3) {
				return false
			}
		}
		return len(finishes) == nFlows
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestAdapterPathAndReachability(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	sw1 := n.NewSwitch("ib0", InfiniBand)
	sw2 := n.NewSwitch("eth0", Ethernet)
	a := sw1.NewAdapter("a", 1e9, 2*sim.Microsecond)
	b := sw1.NewAdapter("b", 1e9, 2*sim.Microsecond)
	c := sw2.NewAdapter("c", 1e9, 0)
	if !Reachable(a, b) {
		t.Fatal("a and b share a switch")
	}
	if Reachable(a, c) {
		t.Fatal("a and c are on different switches")
	}
	p := Path(a, b)
	if len(p) != 2 || p[0] != a.UpLink() || p[1] != b.DownLink() {
		t.Fatalf("unexpected path %v", p)
	}
	if got := Path(a, a); got != nil {
		t.Fatalf("loopback path = %v, want nil", got)
	}
	if PathLatency(p) != 2*sim.Microsecond {
		t.Fatalf("PathLatency = %v", PathLatency(p))
	}
}

func TestTechString(t *testing.T) {
	if InfiniBand.String() != "InfiniBand" || Ethernet.String() != "Ethernet" {
		t.Fatal("Tech.String broken")
	}
}

// TestFlowCompletionOrderReplays reruns a many-flow program over shared
// links and requires the same completion order and kernel counters every
// time. Groups of identical flows finish at the same instant, and rates
// are filled on links of awkward capacities, so completing flows or
// filling rates in map order shows up as a reordered trace or an extra
// +1 ns completion event.
func TestFlowCompletionOrderReplays(t *testing.T) {
	run := func() (string, sim.Stats) {
		k := sim.NewKernel()
		defer k.Close()
		n := NewNetwork(k)
		shared := []*Link{
			n.NewLink("s0", 3e9, sim.Microsecond),
			n.NewLink("s1", 7.3e9, sim.Microsecond),
			n.NewLink("s2", 1.1e10, sim.Microsecond),
		}
		var trace strings.Builder
		for i := 0; i < 36; i++ {
			i := i
			own := n.NewLink(fmt.Sprintf("own%d", i), 1.7e9*float64(1+i%3), sim.Microsecond)
			maxRate := 0.0
			if i%7 == 0 {
				maxRate = 4.1e8
			}
			f := n.StartFlow([]*Link{own, shared[i%3], shared[(i/3)%3]}, 1e9*float64(1+i%2), maxRate)
			f.Done().OnDone(func(struct{}) { fmt.Fprintf(&trace, "%d@%d ", i, k.Now()) })
		}
		k.Run()
		return trace.String(), k.Stats()
	}
	trace0, stats0 := run()
	for r := 1; r < 16; r++ {
		trace, stats := run()
		if trace != trace0 {
			t.Fatalf("rerun %d completion order differs:\n%s\nvs\n%s", r, trace0, trace)
		}
		if stats != stats0 {
			t.Fatalf("rerun %d kernel stats differ: %+v vs %+v", r, stats0, stats)
		}
	}
}

// TestFlowSetsClearVacatedSlots: once flows finish, neither the network's
// flow set nor a link's keeps a pointer to one in its spare capacity.
func TestFlowSetsClearVacatedSlots(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	l := n.NewLink("l", 1000, 0)
	for _, bytes := range []float64{100, 200, 300} {
		n.StartFlow([]*Link{l}, bytes, 0)
	}
	k.Run()
	for _, set := range []flowSet{n.flows, l.flows} {
		for _, f := range set[:cap(set)] {
			if f != nil {
				t.Fatalf("a flow set keeps finished flow %d in a vacated slot", f.id)
			}
		}
	}
}
