package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestPSFairShareInvariant checks the processor-sharing conservation law:
// the integral of the delivered aggregate rate (per-job rate × active jobs)
// over the run equals the total work submitted, under randomized arrivals,
// capacity changes, and background-load churn. The test-side integral is
// accumulated piecewise at every transition point — arrivals, SetCapacity,
// AddBackground, and completions (via OnDone) — using the aggregate rate
// that held since the previous transition. Each seeded program runs in
// the wheel levels and, shifted a wheel span ahead, through the overflow
// heap; each placement runs twice and must replay the same completions
// and kernel counters.
func TestPSFairShareInvariant(t *testing.T) {
	type bgPulse struct {
		at    Time
		dur   Time
		delta float64
	}
	type arrival struct {
		at Time
		w  float64
	}
	type capChange struct {
		at Time
		c  float64
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cap0 := 1 + 3*rng.Float64()
		var arrivals []arrival
		var caps []capChange
		var pulses []bgPulse
		totalWork := 0.0
		n := 20 + rng.Intn(20)
		for i := 0; i < n; i++ {
			a := arrival{at: Time(rng.Int63n(int64(20 * Second))), w: 0.1 + 4*rng.Float64()}
			arrivals = append(arrivals, a)
			totalWork += a.w
		}
		for i := 0; i < 6; i++ {
			caps = append(caps, capChange{at: Time(rng.Int63n(int64(25 * Second))), c: 0.5 + 3.5*rng.Float64()})
		}
		for i := 0; i < 8; i++ {
			pulses = append(pulses, bgPulse{
				at:    Time(rng.Int63n(int64(22 * Second))),
				dur:   Time(1 + rng.Int63n(int64(8*Second))),
				delta: 0.25 + 2*rng.Float64(),
			})
		}

		// run drives the seeded program once, shifted offset into the
		// future, checks conservation, and returns the completion trace
		// (times relative to offset) plus the kernel's counters.
		run := func(t *testing.T, offset Time) ([]string, Stats) {
			k := NewKernel()
			defer k.Close()
			ps := NewPS(k, cap0, 0)
			var integral float64
			lastT := k.Now()
			lastAgg := 0.0
			accrue := func() {
				now := k.Now()
				integral += lastAgg * (now - lastT).Seconds()
				lastT = now
			}
			recapture := func() { lastAgg = ps.rate() * float64(ps.Load()) }
			var trace []string
			for i, a := range arrivals {
				i, a := i, a
				k.Schedule(offset+a.at, func() {
					accrue()
					ps.ServeAsync(a.w).OnDone(func(struct{}) {
						trace = append(trace, fmt.Sprintf("%d@%d", i, k.Now()-offset))
						accrue()
						recapture()
					})
					recapture()
				})
			}
			for _, c := range caps {
				c := c
				k.Schedule(offset+c.at, func() { accrue(); ps.SetCapacity(c.c); recapture() })
			}
			for _, p := range pulses {
				p := p
				k.Schedule(offset+p.at, func() { accrue(); ps.AddBackground(p.delta); recapture() })
				k.Schedule(offset+p.at+p.dur, func() { accrue(); ps.AddBackground(-p.delta); recapture() })
			}
			if offset >= wheelSpan && len(k.q.overflow) != k.q.n {
				t.Fatalf("%d of %d events in the overflow heap, want all", len(k.q.overflow), k.q.n)
			}
			k.Run()
			if len(trace) != len(arrivals) {
				t.Fatalf("%d of %d jobs completed", len(trace), len(arrivals))
			}
			if ps.Load() != 0 {
				t.Fatalf("PS still loaded after drain: %d", ps.Load())
			}
			if diff := integral - totalWork; diff < -1e-3*totalWork || diff > 1e-3*totalWork {
				t.Fatalf("conservation violated: delivered %.9f, submitted %.9f (diff %.2e)",
					integral, totalWork, diff)
			}
			return trace, k.Stats()
		}

		// heap starts the program a full wheel span ahead, so every event
		// first waits in the wheel's overflow heap and migrates into the
		// wheel levels as the cursor nears; wheel starts it at time 0.
		// Each runs twice and must replay completions and kernel counters,
		// and the heap run must complete jobs at the same relative times.
		var wheelTrace []string
		for _, mode := range []struct {
			name   string
			offset Time
		}{{"wheel", 0}, {"heap", wheelSpan}} {
			t.Run(fmt.Sprintf("seed%d/%s", seed, mode.name), func(t *testing.T) {
				trace1, stats1 := run(t, mode.offset)
				trace2, stats2 := run(t, mode.offset)
				diffTrace(t, "rerun", trace1, trace2)
				if stats1 != stats2 {
					t.Fatalf("rerun kernel stats differ: %+v vs %+v", stats1, stats2)
				}
				if mode.offset == 0 {
					wheelTrace = trace1
				} else if wheelTrace != nil {
					diffTrace(t, "heap vs wheel", wheelTrace, trace1)
				}
			})
		}
	}
}

// TestPSSaturatedThroughput: with jobs always present, no per-job cap and
// no background load, the server delivers exactly its capacity — the batch
// drains at totalWork/capacity regardless of job sizes.
func TestPSSaturatedThroughput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const capacity = 2.5
	k := NewKernel()
	defer k.Close()
	ps := NewPS(k, capacity, 0)
	totalWork := 0.0
	for i := 0; i < 25; i++ {
		w := 0.2 + 3*rng.Float64()
		totalWork += w
		ps.ServeAsync(w)
	}
	end := k.Run()
	want := totalWork / capacity
	if got := end.Seconds(); got < want-1e-6 || got > want+1e-6 {
		t.Fatalf("drain took %.9fs, want %.9fs", got, want)
	}
}

// TestPSZeroRateStall: when the per-job rate underflows to zero (capacity
// fully absorbed by background load), replan must take the explicit stall
// path — no completion event, no Inf/NaN deadline — and a later capacity
// or background change must revive the job.
func TestPSZeroRateStall(t *testing.T) {
	k := NewKernel()
	defer k.Close()
	ps := NewPS(k, 1e-300, 0)
	fut := ps.ServeAsync(1)
	ps.AddBackground(1e40) // 1e-300 / 1e40 underflows to rate 0
	if ps.rate() != 0 {
		t.Fatalf("rate = %g, want exact 0", ps.rate())
	}
	if n := k.PendingEvents(); n != 0 {
		t.Fatalf("stalled PS scheduled %d events", n)
	}
	k.RunUntil(k.Now() + 10*Second)
	if fut.Done() {
		t.Fatal("job completed while stalled")
	}
	ps.AddBackground(-1e40)
	ps.SetCapacity(1)
	start := k.Now()
	k.Run()
	if !fut.Done() {
		t.Fatal("job did not complete after recovery")
	}
	took := (k.Now() - start).Seconds()
	if took < 1-1e-6 || took > 1+1e-6 {
		t.Fatalf("recovered job took %.9fs, want 1s", took)
	}
}
