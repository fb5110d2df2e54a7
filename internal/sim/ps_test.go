package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// approx reports whether a is within tol (fractional) of b.
func approx(a, b Time, tolFrac float64) bool {
	if b == 0 {
		return a < Millisecond
	}
	diff := math.Abs(float64(a - b))
	return diff <= tolFrac*math.Abs(float64(b))+float64(Millisecond)
}

func TestPSSingleJobFullRate(t *testing.T) {
	k := NewKernel()
	ps := NewPS(k, 4, 1) // 4 cores, 1 core max per job
	var done Time
	k.Go("j", func(p *Proc) {
		ps.Serve(p, 10) // 10 core-seconds at 1 core/s = 10s
		done = p.Now()
	})
	k.Run()
	if !approx(done, 10*Second, 1e-6) {
		t.Fatalf("done = %v, want ~10s", done)
	}
}

func TestPSUncappedSingleJob(t *testing.T) {
	k := NewKernel()
	ps := NewPS(k, 8, 0) // uncapped: lone job gets full capacity
	var done Time
	k.Go("j", func(p *Proc) {
		ps.Serve(p, 16)
		done = p.Now()
	})
	k.Run()
	if !approx(done, 2*Second, 1e-6) {
		t.Fatalf("done = %v, want ~2s", done)
	}
}

func TestPSEqualSharingUnderOvercommit(t *testing.T) {
	// 8 jobs of 10 core-seconds each on 4 cores, 1-core cap:
	// rate = 0.5 core each, so all finish at 20s.
	k := NewKernel()
	ps := NewPS(k, 4, 1)
	var finishes []Time
	for i := 0; i < 8; i++ {
		k.Go("j", func(p *Proc) {
			ps.Serve(p, 10)
			finishes = append(finishes, p.Now())
		})
	}
	k.Run()
	if len(finishes) != 8 {
		t.Fatalf("finished %d jobs, want 8", len(finishes))
	}
	for _, f := range finishes {
		if !approx(f, 20*Second, 1e-3) {
			t.Fatalf("finish = %v, want ~20s", f)
		}
	}
}

func TestPSNoContentionWhenUnderCapacity(t *testing.T) {
	// 4 jobs on 8 cores with 1-core cap: no slowdown.
	k := NewKernel()
	ps := NewPS(k, 8, 1)
	var finishes []Time
	for i := 0; i < 4; i++ {
		k.Go("j", func(p *Proc) {
			ps.Serve(p, 5)
			finishes = append(finishes, p.Now())
		})
	}
	k.Run()
	for _, f := range finishes {
		if !approx(f, 5*Second, 1e-3) {
			t.Fatalf("finish = %v, want ~5s", f)
		}
	}
}

func TestPSLateArrivalSlowsEarlyJob(t *testing.T) {
	// Job A (10 units) starts at t=0 on capacity 1. Job B (10 units)
	// arrives at t=5. A has 5 left, now at rate 0.5 → A finishes at 15.
	// B then runs alone: 7.5 done by t=15... B: from 5 to 15 does 5 units,
	// then full rate for 5 more → finishes at 20.
	k := NewKernel()
	ps := NewPS(k, 1, 0)
	var aDone, bDone Time
	k.Go("a", func(p *Proc) {
		ps.Serve(p, 10)
		aDone = p.Now()
	})
	k.Go("b", func(p *Proc) {
		p.Sleep(5 * Second)
		ps.Serve(p, 10)
		bDone = p.Now()
	})
	k.Run()
	if !approx(aDone, 15*Second, 1e-3) {
		t.Fatalf("aDone = %v, want ~15s", aDone)
	}
	if !approx(bDone, 20*Second, 1e-3) {
		t.Fatalf("bDone = %v, want ~20s", bDone)
	}
}

func TestPSZeroAmountImmediate(t *testing.T) {
	k := NewKernel()
	ps := NewPS(k, 1, 0)
	var done Time = -1
	k.Go("j", func(p *Proc) {
		ps.Serve(p, 0)
		done = p.Now()
	})
	k.Run()
	if done != 0 {
		t.Fatalf("done = %v, want 0", done)
	}
}

func TestPSSetCapacity(t *testing.T) {
	// 10 units at capacity 1; at t=5 capacity doubles → remaining 5 units
	// at rate 2 takes 2.5s → done at 7.5s.
	k := NewKernel()
	ps := NewPS(k, 1, 0)
	var done Time
	k.Go("j", func(p *Proc) {
		ps.Serve(p, 10)
		done = p.Now()
	})
	k.Schedule(5*Second, func() { ps.SetCapacity(2) })
	k.Run()
	if !approx(done, 7500*Millisecond, 1e-3) {
		t.Fatalf("done = %v, want ~7.5s", done)
	}
}

func TestPSLoad(t *testing.T) {
	k := NewKernel()
	ps := NewPS(k, 1, 0)
	k.Go("j", func(p *Proc) { ps.Serve(p, 100) })
	k.Schedule(Second, func() {
		if ps.Load() != 1 {
			t.Errorf("Load = %d, want 1", ps.Load())
		}
	})
	k.Run()
	if ps.Load() != 0 {
		t.Fatalf("Load after completion = %d, want 0", ps.Load())
	}
}

// Property: total work conserved — N equal jobs on capacity C (uncapped)
// all finish at N*W/C regardless of N and W.
func TestPSWorkConservationProperty(t *testing.T) {
	f := func(nRaw, wRaw uint8) bool {
		n := int(nRaw%8) + 1
		w := float64(wRaw%50) + 1
		k := NewKernel()
		ps := NewPS(k, 4, 0)
		var finishes []Time
		for i := 0; i < n; i++ {
			k.Go("j", func(p *Proc) {
				ps.Serve(p, w)
				finishes = append(finishes, p.Now())
			})
		}
		k.Run()
		want := FromSeconds(float64(n) * w / 4)
		for _, fin := range finishes {
			if !approx(fin, want, 1e-3) {
				return false
			}
		}
		return len(finishes) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPSNonPositiveCapacityPanics(t *testing.T) {
	k := NewKernel()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPS(k, 0, 0)
}

// TestPSServeMatchesServeAsyncWait checks that Serve, which parks the proc
// on its job, replays exactly what waiting on ServeAsync's future does:
// the same completion order and times and the same kernel counters. The
// programs mix zero and sub-epsilon jobs, which complete inside their own
// submission and must not park.
func TestPSServeMatchesServeAsyncWait(t *testing.T) {
	run := func(seed int64, serve func(ps *PS, p *Proc, w float64)) ([]string, Stats) {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		defer k.Close()
		ps := NewPS(k, 1+3*rng.Float64(), rng.Float64())
		var trace []string
		for i := 0; i < 24; i++ {
			at := Time(rng.Intn(5000)) * Millisecond
			works := make([]float64, 1+rng.Intn(4))
			for j := range works {
				switch rng.Intn(6) {
				case 0:
					works[j] = 0
				case 1:
					works[j] = psEpsilon / 10
				default:
					works[j] = 5 * rng.Float64()
				}
			}
			k.Go(fmt.Sprint("p", i), func(p *Proc) {
				p.Sleep(at)
				for j, w := range works {
					serve(ps, p, w)
					trace = append(trace, fmt.Sprintf("%s.%d@%d", p.Name(), j, p.Now()))
				}
			})
		}
		k.Run()
		return trace, k.Stats()
	}
	for seed := int64(1); seed <= 8; seed++ {
		got, gotSt := run(seed, func(ps *PS, p *Proc, w float64) { ps.Serve(p, w) })
		want, wantSt := run(seed, func(ps *PS, p *Proc, w float64) { ps.ServeAsync(w).Wait(p) })
		if fmt.Sprint(got) != fmt.Sprint(want) || gotSt != wantSt {
			t.Fatalf("seed %d: Serve replays\n%v %+v\nServeAsync+Wait replays\n%v %+v",
				seed, got, gotSt, want, wantSt)
		}
	}
}
