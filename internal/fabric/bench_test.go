package fabric

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// BenchmarkMaxMin times one short flow through a loaded network: it joins
// beside N long-lived flows that share a trunk between two switches, is
// given its max-min rate, finishes, and leaves, so each op is two replans
// over N+1 flows.
func BenchmarkMaxMin(b *testing.B) {
	for _, flows := range []int{8, 64} {
		b.Run(fmt.Sprintf("flows=%d", flows), func(b *testing.B) {
			k := sim.NewKernel()
			n := NewNetwork(k)
			s1 := n.NewSwitch("s1", InfiniBand)
			s2 := n.NewSwitch("s2", InfiniBand)
			n.Connect(s1, s2, 8e9, sim.Microsecond)
			var srcs, dsts []*Adapter
			for i := 0; i < 16; i++ {
				srcs = append(srcs, s1.NewAdapter(fmt.Sprintf("a%d", i), 4e9, 0))
				dsts = append(dsts, s2.NewAdapter(fmt.Sprintf("b%d", i), 4e9, 0))
			}
			for i := 0; i < flows; i++ {
				maxRate := 0.0
				if i%4 == 0 {
					maxRate = 5e7
				}
				n.StartFlow(Path(srcs[i%16], dsts[(i*7)%16]), 1e18, maxRate)
			}
			k.RunUntil(sim.Millisecond)
			stop := func(struct{}) { k.Stop() }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n.StartFlow(Path(srcs[i%16], dsts[(i+1)%16]), 1e6, 0).Done().OnDone(stop)
				k.Run()
			}
		})
	}
}
