package fabric

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// TestMaxMinInvariants checks, on randomized single-bottleneck topologies,
// the two defining properties of max-min fairness at a snapshot:
//  1. feasibility — the summed rate on every link ≤ its capacity;
//  2. bottleneck saturation — every flow crosses at least one link that is
//     (nearly) fully utilized, or runs at its own cap.
func TestMaxMinInvariants(t *testing.T) {
	f := func(nFlowsRaw, capRaw uint8, caps []uint8) bool {
		nFlows := int(nFlowsRaw%6) + 2
		linkCap := float64(capRaw%100) + 10
		k := sim.NewKernel()
		n := NewNetwork(k)
		shared := n.NewLink("shared", linkCap, 0)
		private := make([]*Link, nFlows)
		flows := make([]*Flow, nFlows)
		for i := 0; i < nFlows; i++ {
			private[i] = n.NewLink("p", linkCap*2, 0)
			var flowCap float64
			if i < len(caps) && caps[i]%3 == 0 {
				flowCap = float64(caps[i]%20) + 1
			}
			flows[i] = n.StartFlow([]*Link{private[i], shared}, 1e12, flowCap)
		}
		k.RunUntil(sim.Second) // flows active, far from completion

		// Feasibility on every link.
		for _, l := range append(private, shared) {
			var sum float64
			for _, f := range l.flows {
				sum += f.Rate()
			}
			if sum > l.Bandwidth*1.0001 {
				return false
			}
		}
		// Saturation or cap for every flow.
		var sharedSum float64
		for _, f := range shared.flows {
			sharedSum += f.Rate()
		}
		sharedSaturated := sharedSum >= shared.Bandwidth*0.999
		for _, fl := range flows {
			atCap := fl.maxRate > 0 && fl.Rate() >= fl.maxRate*0.999
			if !sharedSaturated && !atCap {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: total bytes delivered are conserved — a flow's Done fires at
// exactly bytes/(aggregate fair share) when flows are symmetric.
func TestFlowCompletionConservation(t *testing.T) {
	f := func(nRaw, bytesRaw uint8) bool {
		n := int(nRaw%5) + 1
		bytes := float64(bytesRaw%100+1) * 10
		k := sim.NewKernel()
		net := NewNetwork(k)
		l := net.NewLink("l", 100, 0)
		count := 0
		for i := 0; i < n; i++ {
			net.StartFlow([]*Link{l}, bytes, 0).Done().OnDone(func(struct{}) { count++ })
		}
		end := k.Run()
		want := sim.FromSeconds(float64(n) * bytes / 100)
		diff := end - want
		if diff < 0 {
			diff = -diff
		}
		return count == n && diff < 10*sim.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestVerySlowFlowDoesNotOverflow(t *testing.T) {
	// Regression: a heavily-capped flow's completion estimate used to
	// wrap past MaxTime and panic.
	k := sim.NewKernel()
	n := NewNetwork(k)
	l := n.NewLink("l", 1e9, 0)
	f := n.StartFlow([]*Link{l}, 1e15, 1e-6) // ~3e13 years
	k.RunUntil(24 * sim.Hour)
	if f.Done().Done() {
		t.Fatal("flow cannot have finished")
	}
}
