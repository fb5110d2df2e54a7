package mpi

import (
	"errors"
	"testing"

	"repro/internal/mpi/btl"
	"repro/internal/sim"
)

// TestSendrecvStartsNoProcess: the send half of a Sendrecv runs as
// callbacks, so across rounds of eager and rendezvous exchanges the only
// live processes are the rank bodies and the launch's join process.
func TestSendrecvStartsNoProcess(t *testing.T) {
	r := newRig(t, 2, 2, true)
	defer r.k.Close()
	const rounds = 100
	var live []int
	r.job.Launch("ring", func(p *sim.Proc, rk *Rank) {
		n := r.job.Size()
		right, left := (rk.RankID()+1)%n, (rk.RankID()+n-1)%n
		for i := 0; i < rounds; i++ {
			bytes := 1024.0
			if i%2 == 1 {
				bytes = 1e6 // rendezvous
			}
			got, err := rk.Sendrecv(p, right, i, bytes, left, i)
			if err != nil || got != bytes {
				t.Errorf("rank %d round %d: got %v, %v", rk.RankID(), i, got, err)
				return
			}
			if rk.RankID() == 0 {
				live = append(live, r.k.LiveProcs())
			}
			r.job.Barrier(p)
		}
	})
	r.k.Run()
	if len(live) != rounds {
		t.Fatalf("%d rounds finished, want %d", len(live), rounds)
	}
	// Four rank bodies and the launch's join process.
	for i, n := range live {
		if n != 5 {
			t.Fatalf("LiveProcs after round %d = %d, want 5", i, n)
		}
	}
}

// TestSendrecvSendError: a failing send half is reported by Sendrecv once
// its receive half has completed, and the rank's next Sendrecv works
// after the transports are rebuilt.
func TestSendrecvSendError(t *testing.T) {
	r := newRig(t, 1, 2, true)
	defer r.k.Close()
	// Rank 0 has no usable module, so selecting one for rank 1 fails.
	r.job.Rank(0).BTLs().ReleaseAll()
	start := r.k.Now()
	var failedAt sim.Time
	var firstErr error
	var got [2]float64
	r.job.Launch("xchg", func(p *sim.Proc, rk *Rank) {
		switch rk.RankID() {
		case 0:
			_, firstErr = rk.Sendrecv(p, 1, 1, 1024, 1, 2)
			failedAt = p.Now()
			rk.BTLs().Reconstruct()
			b, err := rk.Sendrecv(p, 1, 3, 1e6, 1, 4)
			if err != nil {
				t.Errorf("rank 0 after Reconstruct: %v", err)
			}
			got[0] = b
		case 1:
			p.Sleep(sim.Second)
			if err := rk.Send(p, 0, 2, 1024); err != nil {
				t.Errorf("rank 1 send: %v", err)
			}
			b, err := rk.Sendrecv(p, 0, 4, 1e6, 0, 3)
			if err != nil {
				t.Errorf("rank 1 sendrecv: %v", err)
			}
			got[1] = b
		}
	})
	r.k.Run()
	if !errors.Is(firstErr, btl.ErrNoModule) {
		t.Fatalf("first Sendrecv error = %v, want ErrNoModule", firstErr)
	}
	if failedAt < start+sim.Second {
		t.Fatalf("first Sendrecv returned at %v, before its receive (%v)", failedAt-start, sim.Second)
	}
	if got != [2]float64{1e6, 1e6} {
		t.Fatalf("second exchange received %v, want 1e6 on both ranks", got)
	}
}

// TestMatchQueuesClearVacatedSlots: taking an entry out of the posted
// receive queue or the unexpected-message queue leaves no pointer behind
// in the slice's spare capacity, where it would alias a recycled request
// or message.
func TestMatchQueuesClearVacatedSlots(t *testing.T) {
	r := newRig(t, 1, 2, false)
	defer r.k.Close()
	rk0, rk1 := r.job.Rank(0), r.job.Rank(1)
	for tag := 1; tag <= 2; tag++ { // two receives posted before any send
		r.k.Go("recv", func(p *sim.Proc) { rk0.Recv(p, 1, tag) })
	}
	r.k.Go("send", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		for _, tag := range []int{1, 2, 3, 4} { // 3 and 4 arrive unexpected
			if err := rk1.Send(p, 0, tag, 1024); err != nil {
				t.Error(err)
			}
		}
		for _, tag := range []int{3, 4} {
			rk0.Recv(p, 1, tag)
		}
	})
	r.k.Run()
	for _, q := range rk0.recvQ[:cap(rk0.recvQ)] {
		if q != nil {
			t.Fatalf("recvQ keeps %+v in a vacated slot", *q)
		}
	}
	for _, m := range rk0.unexpQ[:cap(rk0.unexpQ)] {
		if m != nil {
			t.Fatalf("unexpQ keeps %+v in a vacated slot", *m)
		}
	}
}
