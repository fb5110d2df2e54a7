package fleet

import (
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/sim"
)

// Water-filling regression, hand-computed on two links: A crosses both
// L1 (10 GB/s, shared with B) and L2 (2 GB/s, alone); B crosses only L1.
// Equal-split pins B at half of L1 (5 GB/s) even though A — bottlenecked
// at 2 GB/s by L2 — can never use its L1 half: 60 GB / 5 GB/s = 12 s for
// B, so the old estimator called the batch 12 s. Max-min redistributes
// A's unused 3 GB/s to B (8 GB/s → 7.5 s), leaving A the slowest member:
// 20 GB / 2 GB/s = 10 s.
func TestBatchTimeWaterFills(t *testing.T) {
	caps := map[string]float64{"wan:l1": 10e9, "wan:l2": 2e9}
	a := mig("a", 20, 0, 1e12, "wan:l1", "wan:l2")
	b := mig("b", 60, 0, 1e12, "wan:l1")
	batch := []*Migration{a, b}
	rates := batchRates(batch, caps)
	if rates[0] != 2e9 || rates[1] != 8e9 {
		t.Fatalf("rates = %v, want [2e9 8e9]", rates)
	}
	if got, want := batchTime(batch, caps), sim.FromSeconds(10); got != want {
		t.Fatalf("batchTime = %v, want %v (equal-split would say 12 s)", got, want)
	}
}

// Progressive filling reduces to equal split when members are
// symmetric — the invariant that keeps the ext-fleet LPT rows
// byte-identical across the estimator fix.
func TestBatchRatesSymmetricEqualSplit(t *testing.T) {
	caps := map[string]float64{"wan:a": 1e9}
	batch := []*Migration{
		mig("x", 2, 0, 1e10, "wan:a"),
		mig("y", 2, 0, 1e10, "wan:a"),
	}
	rates := batchRates(batch, caps)
	if rates[0] != 0.5e9 || rates[1] != 0.5e9 {
		t.Fatalf("rates = %v, want equal halves", rates)
	}
}

// Eight identical gangs over one saturated uplink: LPT under cap 4 pays
// the fixed overheads twice (two batches); the max-flow planner rides
// the bottleneck into a single round and pays them once. This is the
// unit-scale version of the ext-fleet acceptance row.
func TestPlanMaxFlowMergesBottleneckRounds(t *testing.T) {
	caps := map[string]float64{"wan:dc0": 1.25e9, "wan:dc1": 1.25e9}
	var migs []*Migration
	for i := 0; i < 8; i++ {
		m := mig(fmt.Sprintf("j%02d", i), 2.0, 13*sim.Second, 0.325e9, "wan:dc0", "wan:dc1")
		migs = append(migs, m)
	}
	lpt := PlanSequence(migs, caps, SeqPolicy{Batched: true, Cap: 4})
	mf := PlanSequence(migs, caps, SeqPolicy{Batched: true, Mode: SeqMaxFlow})
	if len(mf.Batches) != 1 {
		t.Fatalf("maxflow used %d rounds, want 1", len(mf.Batches))
	}
	if len(lpt.Batches) != 2 {
		t.Fatalf("LPT used %d batches, want 2", len(lpt.Batches))
	}
	if mf.Predicted >= lpt.Predicted {
		t.Fatalf("maxflow predicted %v not below LPT %v", mf.Predicted, lpt.Predicted)
	}
}

// A migration that adds real capacity (its own uncontended link) is
// admitted for flow gain, not bottleneck riding — the round grows while
// aggregate transferable bytes grow.
func TestPlanMaxFlowAdmitsDisjointLinks(t *testing.T) {
	caps := map[string]float64{"wan:a": 1e9, "wan:b": 1e9}
	migs := []*Migration{
		mig("a", 4, sim.Second, 1e9, "wan:a"),
		mig("b", 4, sim.Second, 1e9, "wan:b"),
	}
	seq := PlanSequence(migs, caps, SeqPolicy{Mode: SeqMaxFlow})
	if len(seq.Batches) != 1 || len(seq.Batches[0]) != 2 {
		t.Fatalf("disjoint migrations should share one round, got %v batches", len(seq.Batches))
	}
}

// layout flattens a sequence to job names per batch, for equality
// checks.
func layout(seq Sequence) [][]string {
	var out [][]string
	for _, b := range seq.Batches {
		var names []string
		for _, m := range b {
			names = append(names, m.Job.Name)
		}
		out = append(out, names)
	}
	return out
}

// Property test over seeded random WAN-bottleneck topologies: the
// max-flow plan's predicted makespan never exceeds the LPT plan's under
// the same cap (the planner's portfolio guard makes this structural —
// this asserts the guard and the shared pricing stay wired), and both
// planners are deterministic functions of their input.
func TestPlanMaxFlowNeverWorseThanLPT(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 200; trial++ {
		nLinks := 1 + rng.Intn(4)
		caps := map[string]float64{}
		var links []string
		for i := 0; i < nLinks; i++ {
			l := fmt.Sprintf("wan:l%d", i)
			links = append(links, l)
			caps[l] = (0.5 + 1.5*rng.Float64()) * 1e9
		}
		nMigs := 2 + rng.Intn(11)
		var migs []*Migration
		for i := 0; i < nMigs; i++ {
			var ls []string
			for _, l := range links {
				if rng.Intn(2) == 0 {
					ls = append(ls, l)
				}
			}
			m := mig(fmt.Sprintf("j%02d", i),
				1+9*rng.Float64(),
				sim.Time(1+rng.Intn(43))*sim.Second,
				float64(1+rng.Intn(4))*0.1625e9,
				ls...)
			migs = append(migs, m)
		}
		cap := 0
		if rng.Intn(2) == 0 {
			cap = 2 + rng.Intn(4)
		}
		lpt := PlanSequence(migs, caps, SeqPolicy{Batched: true, Cap: cap})
		mf := PlanSequence(migs, caps, SeqPolicy{Batched: true, Cap: cap, Mode: SeqMaxFlow})
		if mf.Predicted > lpt.Predicted {
			t.Fatalf("trial %d: maxflow predicted %v exceeds LPT %v (links %v, %d migs, cap %d)",
				trial, mf.Predicted, lpt.Predicted, caps, nMigs, cap)
		}
		for _, b := range mf.Batches {
			if cap > 0 && len(b) > cap {
				t.Fatalf("trial %d: maxflow round of %d exceeds cap %d", trial, len(b), cap)
			}
		}
		if n := len(mf.Migrations()); n != nMigs {
			t.Fatalf("trial %d: maxflow plan carries %d migrations, want %d", trial, n, nMigs)
		}
		mf2 := PlanSequence(migs, caps, SeqPolicy{Batched: true, Cap: cap, Mode: SeqMaxFlow})
		if !reflect.DeepEqual(layout(mf), layout(mf2)) || mf.Predicted != mf2.Predicted {
			t.Fatalf("trial %d: maxflow plan not deterministic", trial)
		}
		lpt2 := PlanSequence(migs, caps, SeqPolicy{Batched: true, Cap: cap})
		if !reflect.DeepEqual(layout(lpt), layout(lpt2)) || lpt.Predicted != lpt2.Predicted {
			t.Fatalf("trial %d: LPT plan not deterministic", trial)
		}
	}
}

// The Dinic solver on a hand-checkable network: two migrations capped at
// 3 each, sharing a 4-capacity link — max flow 4; adding a third on a
// disjoint 2-capacity link raises it to 6.
func TestRoundFlowHandComputed(t *testing.T) {
	caps := map[string]float64{"wan:x": 4, "wan:y": 2}
	a := mig("a", 1, 0, 3, "wan:x")
	b := mig("b", 1, 0, 3, "wan:x")
	c := mig("c", 1, 0, 3, "wan:y")
	if f := roundFlow([]*Migration{a, b}, caps); f != 4 {
		t.Fatalf("flow(a,b) = %v, want 4", f)
	}
	if f := roundFlow([]*Migration{a, b, c}, caps); f != 6 {
		t.Fatalf("flow(a,b,c) = %v, want 6", f)
	}
}

// Unknown modes are refused before they can silently plan as LPT.
func TestSeqPolicyValidate(t *testing.T) {
	for _, mode := range []string{"", SeqLPT, SeqMaxFlow} {
		if err := (SeqPolicy{Mode: mode}).Validate(); err != nil {
			t.Fatalf("mode %q: %v", mode, err)
		}
	}
	if err := (SeqPolicy{Mode: "dinic"}).Validate(); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestPlanSequenceMemoizedCost is the satellite perf guard: the memoized
// LPT insert must price a 128-migration plan materially faster than the
// old O(B²) re-pricer, which recomputed batchTime for every untouched
// batch on every candidate. naive replicates that re-pricer against the
// same batchTime, so the comparison isolates the memoization.
// Wall-clock assertions are machine-sensitive, so the guard runs only
// when NINJA_PERF=1 is set by hand; no script sets it.
func TestPlanSequenceMemoizedCost(t *testing.T) {
	if os.Getenv("NINJA_PERF") != "1" {
		t.Skip("set NINJA_PERF=1 to run the wall-clock perf guard")
	}
	caps, migs := seqBenchFleet(128)
	pol := SeqPolicy{Batched: true, Cap: 4}

	naive := func() Sequence {
		order := append([]*Migration(nil), migs...)
		// Same seed order as planLPT.
		for i := 1; i < len(order); i++ {
			for j := i; j > 0; j-- {
				di, dj := order[j].soloTime(caps), order[j-1].soloTime(caps)
				if di > dj || (di == dj && order[j].Job.Name < order[j-1].Job.Name) {
					order[j], order[j-1] = order[j-1], order[j]
				} else {
					break
				}
			}
		}
		var seq Sequence
		price := func(batches [][]*Migration, into int, m *Migration) sim.Time {
			var total sim.Time
			for bi, b := range batches {
				if bi == into {
					b = append(append([]*Migration(nil), b...), m)
				}
				total += batchTime(b, caps)
			}
			if into == -1 {
				total += batchTime([]*Migration{m}, caps)
			}
			return total
		}
		for _, m := range order {
			best, bestTotal := -1, sim.Time(0)
			for bi, b := range seq.Batches {
				if pol.Cap > 0 && len(b) >= pol.Cap {
					continue
				}
				if total := price(seq.Batches, bi, m); best == -1 || total < bestTotal {
					best, bestTotal = bi, total
				}
			}
			if newTotal := price(seq.Batches, -1, m); best == -1 || newTotal < bestTotal {
				seq.Batches = append(seq.Batches, []*Migration{m})
			} else {
				seq.Batches[best] = append(seq.Batches[best], m)
			}
		}
		for _, b := range seq.Batches {
			d := batchTime(b, caps)
			seq.PerBatch = append(seq.PerBatch, d)
			seq.Predicted += d
		}
		return seq
	}

	const rounds = 5
	best := func(f func()) float64 {
		b := -1.0
		for r := 0; r < rounds; r++ {
			start := time.Now()
			f()
			if w := time.Since(start).Seconds(); b < 0 || w < b {
				b = w
			}
		}
		return b
	}
	var memo, ref Sequence
	memoSecs := best(func() { memo = PlanSequence(migs, caps, pol) })
	naiveSecs := best(func() { ref = naive() })
	if !reflect.DeepEqual(layout(memo), layout(ref)) || memo.Predicted != ref.Predicted {
		t.Fatalf("memoized plan diverges from the reference re-pricer:\n%v\nvs\n%v", layout(memo), layout(ref))
	}
	if memoSecs >= naiveSecs/2 {
		t.Fatalf("memoized planning %.4fs, naive %.4fs — want at least 2x", memoSecs, naiveSecs)
	}
	t.Logf("memoized %.4fs vs naive %.4fs (%.1fx)", memoSecs, naiveSecs, naiveSecs/memoSecs)
}

// seqBenchFleet builds the deterministic 128-migration WAN-bottlenecked
// planning workload shared by the perf guard and BenchmarkSequencerPlan:
// every gang crosses the evacuating site's uplink plus one of seven
// destination uplinks, with staggered payloads and the calibrated fixed
// overheads.
func seqBenchFleet(n int) (map[string]float64, []*Migration) {
	caps := map[string]float64{"wan:src": 1.25e9}
	for i := 0; i < 7; i++ {
		caps[fmt.Sprintf("wan:dst%d", i)] = 1.25e9
	}
	var migs []*Migration
	for i := 0; i < n; i++ {
		fixed := 13 * sim.Second
		if i%2 == 0 {
			fixed = 43 * sim.Second
		}
		migs = append(migs, mig(
			fmt.Sprintf("j%03d", i),
			1+float64(i%16)/4,
			fixed,
			0.325e9,
			"wan:src", fmt.Sprintf("wan:dst%d", i%7),
		))
	}
	return caps, migs
}
