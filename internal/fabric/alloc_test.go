// The race detector allocates on coroutine switches, so the allocation
// counts below only hold in a normal build.
//go:build !race

package fabric

import (
	"testing"

	"repro/internal/sim"
)

// TestAllocFreeReplan checks that once warm, a replan over N active flows
// (finished-flow scan, max-min rates and the next-completion event)
// allocates nothing, and neither does a cached Route.
func TestAllocFreeReplan(t *testing.T) {
	k := sim.NewKernel()
	n := NewNetwork(k)
	s1 := n.NewSwitch("s1", InfiniBand)
	s2 := n.NewSwitch("s2", InfiniBand)
	n.Connect(s1, s2, 4e9, sim.Microsecond)
	var srcs, dsts []*Adapter
	for i := 0; i < 8; i++ {
		srcs = append(srcs, s1.NewAdapter("a", 4e9, 0))
		dsts = append(dsts, s2.NewAdapter("b", 4e9, 0))
	}
	for i := 0; i < 16; i++ {
		maxRate := 0.0
		if i%4 == 0 {
			maxRate = 1e8 // some flows settle at their cap
		}
		n.StartFlow(Path(srcs[i%8], dsts[(i*3)%8]), 1e15, maxRate)
	}
	k.RunUntil(sim.Millisecond)
	if n.ActiveFlows() != 16 {
		t.Fatalf("%d active flows, want 16", n.ActiveFlows())
	}
	n.replan()
	if a := testing.AllocsPerRun(100, func() { n.replan() }); a != 0 {
		t.Fatalf("replan over 16 flows allocates %v times, want 0", a)
	}
	if a := testing.AllocsPerRun(100, func() { Path(srcs[0], dsts[1]) }); a != 0 {
		t.Fatalf("a cached Route allocates %v times, want 0", a)
	}
}
