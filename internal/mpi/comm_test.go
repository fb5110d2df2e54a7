package mpi

import (
	"testing"

	"repro/internal/sim"
)

func TestWorldCommShape(t *testing.T) {
	r := newRig(t, 2, 2, true)
	w := r.job.World()
	if w.Size() != 4 {
		t.Fatalf("world size = %d", w.Size())
	}
	for i := 0; i < 4; i++ {
		if w.WorldRank(i) != i {
			t.Fatalf("world order broken at %d", i)
		}
	}
	if cr, ok := w.RankOf(r.job.Rank(3)); !ok || cr != 3 {
		t.Fatalf("RankOf = %d,%v", cr, ok)
	}
}

func TestNewCommSubsetAndDedup(t *testing.T) {
	r := newRig(t, 4, 1, true)
	c := r.job.NewComm([]int{3, 1, 3})
	if c.Size() != 2 || c.WorldRank(0) != 3 || c.WorldRank(1) != 1 {
		t.Fatalf("comm = size %d, members %d %d", c.Size(), c.WorldRank(0), c.WorldRank(1))
	}
	if _, ok := c.RankOf(r.job.Rank(0)); ok {
		t.Fatal("rank 0 should not be a member")
	}
}

func TestSplitRowsAndColumns(t *testing.T) {
	// 4 VMs × 2 ranks = 8 ranks in a 2×4 grid: split by row and column.
	r := newRig(t, 4, 2, true)
	rows := r.job.Split(func(wr int) int { return wr / 4 })
	cols := r.job.Split(func(wr int) int { return wr % 4 })
	if len(rows) != 2 || len(cols) != 4 {
		t.Fatalf("rows=%d cols=%d", len(rows), len(cols))
	}
	if rows[0].Size() != 4 || cols[0].Size() != 2 {
		t.Fatalf("row size %d, col size %d", rows[0].Size(), cols[0].Size())
	}
	if rows[1].WorldRank(0) != 4 {
		t.Fatalf("row 1 starts at %d", rows[1].WorldRank(0))
	}
}

func TestCommCollectivesComplete(t *testing.T) {
	// Row/column collectives run concurrently on disjoint communicators —
	// the FT-transpose pattern — without tag interference.
	r := newRig(t, 4, 2, true)
	rows := r.job.Split(func(wr int) int { return wr / 4 })
	cols := r.job.Split(func(wr int) int { return wr % 4 })
	done := 0
	r.job.Launch("grid", func(p *sim.Proc, rk *Rank) {
		row := rows[rk.RankID()/4]
		col := cols[rk.RankID()%4]
		for i := 0; i < 3; i++ {
			if err := row.Alltoall(p, rk, 1e5); err != nil {
				t.Errorf("row alltoall: %v", err)
				return
			}
			if err := col.Allreduce(p, rk, 1e4); err != nil {
				t.Errorf("col allreduce: %v", err)
				return
			}
			if err := row.Barrier(p, rk); err != nil {
				t.Errorf("row barrier: %v", err)
				return
			}
		}
		done++
	})
	r.k.Run()
	if done != 8 {
		t.Fatalf("done = %d/8", done)
	}
}

func TestCommBcastReduceRoots(t *testing.T) {
	r := newRig(t, 4, 1, true)
	c := r.job.NewComm([]int{2, 0, 3}) // comm ranks: 0→w2, 1→w0, 2→w3
	done := 0
	r.job.Launch("sub", func(p *sim.Proc, rk *Rank) {
		if _, member := c.RankOf(rk); !member {
			return // world rank 1 sits out
		}
		if err := c.Bcast(p, rk, 1, 1e5); err != nil { // root = world rank 0
			t.Errorf("bcast: %v", err)
			return
		}
		if err := c.Reduce(p, rk, 0, 1e5); err != nil { // root = world rank 2
			t.Errorf("reduce: %v", err)
			return
		}
		done++
	})
	r.k.Run()
	if done != 3 {
		t.Fatalf("done = %d/3", done)
	}
}

func TestCommNonMemberPanics(t *testing.T) {
	r := newRig(t, 2, 1, true)
	c := r.job.NewComm([]int{0})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.me(r.job.Rank(1))
}

func TestCommCheckpointDuringGridWork(t *testing.T) {
	// A Ninja-style checkpoint in the middle of communicator traffic:
	// CRCP interruption must handle sub-communicator collectives too.
	r := newRig(t, 4, 1, true)
	installCRS(r.job, nil, nil)
	rows := r.job.Split(func(wr int) int { return wr / 2 })
	done := 0
	app := r.job.Launch("grid", func(p *sim.Proc, rk *Rank) {
		row := rows[rk.RankID()/2]
		for i := 0; i < 8; i++ {
			rk.FTProbe(p)
			rk.Compute(p, 0.3)
			if err := row.Allreduce(p, rk, 1e6); err != nil {
				t.Errorf("allreduce: %v", err)
				return
			}
		}
		done++
	})
	r.k.Go("trigger", func(p *sim.Proc) {
		p.Sleep(sim.Second)
		if _, err := r.job.RequestCheckpoint(); err != nil {
			t.Errorf("ckpt: %v", err)
		}
	})
	r.k.Run()
	if !app.Done() || done != 4 {
		t.Fatalf("done=%d app=%v", done, app.Done())
	}
}
