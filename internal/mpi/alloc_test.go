// The race detector allocates on coroutine switches, so the allocation
// counts below only hold in a normal build.
//go:build !race

package mpi

import (
	"testing"

	"repro/internal/sim"
)

// TestAllocFreeSendrecv checks that once warm, a round of Sendrecv around
// a ring of ranks sharing one VM (the sm transport) allocates nothing,
// eager or rendezvous: the send halves run as callbacks of a waiter made
// once per rank, and messages and receive requests are recycled. Each Run executes one round: rank 0
// stops the kernel after each of its exchanges.
func TestAllocFreeSendrecv(t *testing.T) {
	for _, c := range []struct {
		name  string
		bytes float64
	}{{"eager", 1024}, {"rendezvous", 1e6}} {
		t.Run(c.name, func(t *testing.T) {
			r := newRig(t, 1, 4, false)
			defer r.k.Close()
			r.job.Launch("ring", func(p *sim.Proc, rk *Rank) {
				n := r.job.Size()
				right, left := (rk.RankID()+1)%n, (rk.RankID()+n-1)%n
				for {
					if _, err := rk.Sendrecv(p, right, 1, c.bytes, left, 1); err != nil {
						panic(err)
					}
					if rk.RankID() == 0 {
						r.k.Stop()
					}
				}
			})
			for i := 0; i < 10; i++ {
				r.k.Run()
			}
			if n := testing.AllocsPerRun(100, func() { r.k.Run() }); n != 0 {
				t.Fatalf("a %s Sendrecv round allocates %v times, want 0", c.name, n)
			}
		})
	}
}
