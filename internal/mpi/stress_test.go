package mpi

import (
	"testing"
	"testing/quick"

	"repro/internal/crs"
	"repro/internal/sim"
)

// TestRandomCollectiveSequencesWithCheckpoint is an integration property
// test: for random job shapes and random collective sequences, over the
// world and over pair communicators, a checkpoint injected mid-run must
// not lose messages, deadlock, or change the number of operations each
// rank completes.
func TestRandomCollectiveSequencesWithCheckpoint(t *testing.T) {
	f := func(shapeRaw, opsRaw uint8, opskind []uint8) bool {
		nVMs := int(shapeRaw%3)*2 + 2     // 2, 4 or 6 VMs
		ranksPerVM := int(shapeRaw%2) + 1 // 1 or 2
		nOps := int(opsRaw%6) + 4
		r := newRig(t, nVMs, ranksPerVM, true)
		installCRS(r.job, nil, nil)
		pairs := r.job.Split(func(wr int) int { return wr / 2 })

		completed := make([]int, r.job.Size())
		app := r.job.Launch("stress", func(p *sim.Proc, rk *Rank) {
			for op := 0; op < nOps; op++ {
				rk.FTProbe(p)
				kind := 0
				if op < len(opskind) {
					kind = int(opskind[op] % 6)
				}
				var err error
				switch kind {
				case 0:
					err = rk.Bcast(p, op%r.job.Size(), 1e5)
				case 1:
					err = rk.Reduce(p, 0, 1e5)
				case 2:
					err = rk.Allreduce(p, 1e4)
				case 3:
					err = rk.BarrierColl(p)
				case 4:
					err = rk.Alltoall(p, 1e4)
				case 5:
					err = pairs[rk.RankID()/2].Alltoall(p, rk, 1e5)
				}
				if err != nil {
					t.Logf("op %d kind %d: %v", op, kind, err)
					return
				}
				completed[rk.RankID()]++
			}
		})
		// Checkpoint request lands mid-run.
		r.k.Go("trigger", func(p *sim.Proc) {
			p.Sleep(sim.Millisecond)
			r.job.RequestCheckpoint()
		})
		r.k.Run()
		if !app.Done() {
			return false
		}
		for _, c := range completed {
			if c != nOps {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestBackToBackCheckpoints runs several checkpoint cycles in sequence —
// the fallback/recovery pattern of Fig. 8 (three migrations in one run).
func TestBackToBackCheckpoints(t *testing.T) {
	r := newRig(t, 2, 2, true)
	installCRS(r.job, nil, nil)
	app := r.job.Launch("app", func(p *sim.Proc, rk *Rank) {
		for i := 0; i < 60; i++ {
			rk.FTProbe(p)
			rk.Compute(p, 0.2)
			if err := rk.Allreduce(p, 1e4); err != nil {
				t.Errorf("allreduce: %v", err)
				return
			}
		}
	})
	cycles := 0
	r.k.Go("trigger", func(p *sim.Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(2 * sim.Second)
			fut, err := r.job.RequestCheckpoint()
			if err != nil {
				t.Errorf("cycle %d: %v", i, err)
				return
			}
			fut.Wait(p)
			cycles++
		}
	})
	r.k.Run()
	if !app.Done() || cycles != 3 {
		t.Fatalf("app done=%v cycles=%d", app.Done(), cycles)
	}
}

// TestCheckpointWithBLCR exercises the BLCR CRS component end to end: the
// checkpoint phase pays the disk dump cost that SymVirt's SELF avoids.
func TestCheckpointWithBLCR(t *testing.T) {
	r := newRig(t, 2, 1, true)
	blcrs := make([]*crs.BLCR, r.job.Size())
	for i, rk := range r.job.Ranks() {
		blcrs[i] = crs.NewBLCR(2e9, 1e9) // 2 GB image at 1 GB/s
		rk.SetCRS(blcrs[i])
	}
	fut, _ := r.job.RequestCheckpoint()
	runIterations(t, r, 3)
	r.k.Run()
	if !fut.Done() {
		t.Fatal("checkpoint incomplete")
	}
	for i, b := range blcrs {
		if b.Checkpoints != 1 {
			t.Fatalf("rank %d BLCR checkpoints = %d", i, b.Checkpoints)
		}
	}
	// The checkpoint phase must reflect the 2 s dump.
	for _, s := range r.job.CheckpointPhaseTimes() {
		if s.Checkpoint < 1900*sim.Millisecond {
			t.Fatalf("rank %d checkpoint phase %v, want ≈2s (BLCR dump)", s.Rank, s.Checkpoint)
		}
	}
}
