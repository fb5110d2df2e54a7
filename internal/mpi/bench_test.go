package mpi

import (
	"testing"

	"repro/internal/mpi/btl"
	"repro/internal/sim"
)

// BenchmarkSendrecv times one round of a Sendrecv ring: every rank sends
// to its right neighbour and receives from its left, as the NPB BT and
// LU neighbour exchanges do. The sm cases put four ranks in one VM; the
// others put one rank in each of four VMs, which talk over openib (by
// VMM-bypass or para-virtualized) or, with no HCA in the guests, tcp.
func BenchmarkSendrecv(b *testing.B) {
	for _, c := range []struct {
		name       string
		vms, perVM int
		ib         bool
		paravirt   bool
		bytes      float64
	}{
		{"eager-sm", 1, 4, false, false, 1024},
		{"rendezvous-sm", 1, 4, false, false, 1e6},
		{"rendezvous-openib", 4, 1, true, false, 1e6},
		{"rendezvous-tcp", 4, 1, false, false, 1e6},
		{"rendezvous-paravirt", 4, 1, true, true, 1e6},
	} {
		b.Run(c.name, func(b *testing.B) {
			r := newRig(b, c.vms, c.perVM, c.ib)
			defer r.k.Close()
			if c.paravirt {
				for _, rk := range r.job.Ranks() {
					for _, m := range rk.BTLs().Modules() {
						if ib, ok := m.(*btl.OpenIB); ok {
							ib.SetParavirt(&btl.DefaultParavirtCosts)
						}
					}
				}
			}
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
