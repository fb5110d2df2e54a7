package mpi

import (
	"testing"

	"repro/internal/sim"
)

// BenchmarkSendrecv times one round of a Sendrecv ring: every rank sends
// to its right neighbour and receives from its left, as the NPB BT and
// LU neighbour exchanges do. The sm cases put four ranks in one VM; the
// openib case puts one rank in each of four VMs.
func BenchmarkSendrecv(b *testing.B) {
	for _, c := range []struct {
		name       string
		vms, perVM int
		ib         bool
		bytes      float64
	}{
		{"eager-sm", 1, 4, false, 1024},
		{"rendezvous-sm", 1, 4, false, 1e6},
		{"rendezvous-openib", 4, 1, true, 1e6},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := newRig(b, c.vms, c.perVM, c.ib)
			defer r.k.Close()
			n := r.job.Size()
			r.job.Launch("ring", func(p *sim.Proc, rk *Rank) {
				right, left := (rk.RankID()+1)%n, (rk.RankID()+n-1)%n
				for i := 0; i < b.N; i++ {
					if _, err := rk.Sendrecv(p, right, 1, c.bytes, left, 1); err != nil {
						panic(err)
					}
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			r.k.Run()
		})
	}
}
