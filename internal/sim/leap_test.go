package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// TestPSLoneChainLeap holds the lone-chain leap to the Serve loop it
// stands for: long chains alone on their PS (so nextEvent leaps across
// each binade of the accumulator), bit for bit — wake instants, quanta
// served and the virtual-time accumulator's bits. The programs cross
// several binades and psHorizon boundaries, start just below a power of
// two, take their rate from the capacity, the per-job cap or background
// load, land Load, Surface and AddBackground readings mid-leap, and run
// constructed round-half-even ties, where the next sum's last bit depends
// on the accumulator's own.
func TestPSLoneChainLeap(t *testing.T) {
	type named struct {
		name string
		pr   *chainProg
	}
	var progs []named
	add := func(name string, pr *chainProg) { progs = append(progs, named{name, pr}) }

	// One chain alone on each PS: ps0's rate is its per-job cap (1),
	// ps1's its capacity.
	for _, amount := range []float64{0.2, 0.05, 0.7, 1.0 / 3} {
		add(fmt.Sprintf("lone/%g", amount), &chainProg{
			caps: [2]float64{4, 0.37},
			chains: []chainSpec{
				{ps: 0, n: 5000, amount: amount},
				{ps: 1, n: 1000 + int(amount*3000), amount: amount},
			},
		})
	}

	// The chain starts with the accumulator just below 2^e: a plain job
	// moves it there first.
	for _, e := range []int{1, 4, 7, 10} {
		a := math.Ldexp(1, e) - 0.2/3
		add(fmt.Sprintf("below2^%d", e), &chainProg{
			caps: [2]float64{2, 1.5},
			chains: []chainSpec{
				{ps: 0, start: FromSeconds(a) + Second, n: 3000, amount: 0.2},
				{ps: 1, start: FromSeconds(a/1.5) + Second, n: 3000, amount: 0.2},
			},
			ops: []chainOp{
				{at: 0, ps: 0, kind: opAsync, w: a},
				{at: 0, ps: 1, kind: opAsync, w: a},
			},
		})
	}

	// Background load sets the rate for the whole chain on ps1, and for
	// a stretch in its middle on ps0.
	add("background", &chainProg{
		caps: [2]float64{1, 2},
		chains: []chainSpec{
			{ps: 0, n: 4000, amount: 0.2},
			{ps: 1, n: 4000, amount: 0.2},
		},
		ops: []chainOp{
			{at: 0, ps: 1, kind: opPulse, w: 0.75, dur: 2000 * Second},
			{at: 100*Second + 12345, ps: 0, kind: opPulse, w: 0.5, dur: 250*Second + 777},
		},
	})

	// Load readings, cuts, background pulses and the odd plain job at
	// arbitrary instants, so they land mid-leap.
	amounts := []float64{0.2, 0.2, 0.05, 0.3}
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pr := &chainProg{caps: [2]float64{1 + float64(rng.Intn(4)), 0.5 + 3*rng.Float64()}}
		var span Time
		for ps := 0; ps < 2; ps++ {
			cs := chainSpec{ps: ps, n: 1000 + rng.Intn(4001), amount: amounts[rng.Intn(len(amounts))]}
			if rng.Intn(2) == 0 {
				cs.pause = Time(rng.Int63n(int64(Second)))
			}
			pr.chains = append(pr.chains, cs)
			span = max(span, FromSeconds(float64(cs.n)*cs.amount))
		}
		for i := 0; i < 5+rng.Intn(10); i++ {
			op := chainOp{at: Time(rng.Int63n(int64(span))), ps: rng.Intn(2)}
			switch rng.Intn(7) {
			case 0, 1:
				op.kind = opLoad
			case 2, 3:
				op.kind, op.target = opCut, op.ps
			case 4, 5:
				op.kind, op.w, op.dur = opPulse, 0.25+rng.Float64(), Time(1+rng.Int63n(int64(100*Second)))
			default:
				op.kind, op.w = opAsync, 0.01+2*rng.Float64()
			}
			if rng.Intn(3) == 0 {
				op.from = Time(1 + rng.Int63n(int64(op.at)))
			}
			op.child = rng.Intn(3) == 0
			op.grandchild = op.child && rng.Intn(2) == 0
			pr.ops = append(pr.ops, op)
		}
		add(fmt.Sprintf("midleap/seed%d", seed), pr)
	}

	// A capacity change or pulse a few hundred ns after a quantum
	// boundary moves the accumulator by less than psEpsilon: the next
	// completion still pops, but by a shorter step than the ones after
	// it, whose gap is the whole amount.
	for i, w := range []float64{0.8, 2.5} {
		pr := &chainProg{
			caps:   [2]float64{1, 1.25},
			chains: []chainSpec{{ps: 0, n: 3000, amount: 0.2}, {ps: 1, n: 3000, amount: 0.2}},
		}
		_, bounds, _ := pr.run(false)
		for j, b := range []Time{bounds[700], bounds[2101], bounds[4444]} {
			pr.ops = append(pr.ops,
				chainOp{at: b + 300, ps: j % 2, kind: opCap, w: w},
				chainOp{at: b + 450, ps: 1 - j%2, kind: opPulse, w: w / 4, dur: 90 * Second})
		}
		add(fmt.Sprintf("after-bound/%d", i), pr)
	}

	// Ties in the increment: at a capacity where r·dt lies halfway
	// between two floats of the accumulator's binade [1024, 2048),
	// round-half-even makes the first sum from an odd accumulator differ
	// from every later one. The plain jobs before the chains leave the
	// accumulator's last bit set on some of the four.
	r := tieRate(1.3, 0.25, 10)
	for i, a := range []float64{1024.3, 1100.7, 1300.1, 1500.9} {
		add(fmt.Sprintf("tie-step/%d", i), &chainProg{
			caps:   [2]float64{1, r},
			chains: []chainSpec{{ps: 1, start: FromSeconds(a/r) + Second, n: 2000, amount: 0.25}},
			ops:    []chainOp{{at: 0, ps: 1, kind: opAsync, w: a}},
		})
	}
	// Ties in the amount: an odd multiple of half an ulp of the binade
	// [1, 2), and of [1024, 2048).
	odd := 2*math.Floor(0.01*math.Ldexp(1, 52)) + 1
	for i, c := range []struct{ amount, before float64 }{
		{math.Ldexp(odd, -53), 1 - 0.003},
		{0.25 + math.Ldexp(1, -43), 1024.3},
	} {
		add(fmt.Sprintf("tie-amount/%d", i), &chainProg{
			caps: [2]float64{1, 1.7},
			chains: []chainSpec{
				{ps: 0, start: FromSeconds(c.before) + Second, n: 3000, amount: c.amount},
				{ps: 1, start: FromSeconds(c.before/1.7) + Second, n: 3000, amount: c.amount},
			},
			ops: []chainOp{
				{at: 0, ps: 0, kind: opAsync, w: c.before},
				{at: 0, ps: 1, kind: opAsync, w: c.before},
			},
		})
	}

	for _, p := range progs {
		t.Run(p.name, func(t *testing.T) {
			want, _, _ := p.pr.run(false)
			got, _, _ := p.pr.run(true)
			diffTrace(t, "chained vs eager", want, got)
		})
	}
}

// tieRate returns a capacity near r0 at which a lone chain of quanta of
// amount (a multiple of the binade's ulp), with the accumulator in
// [2^e, 2^(e+1)), adds r·dt exactly halfway between two floats there.
func tieRate(r0, amount float64, e int) float64 {
	u := math.Ldexp(1, e-52)
	for r := r0; ; r += 1e-3 {
		dt := FromSeconds(amount / r).SaturatingAdd(1)
		s := dt.Seconds()
		tie := (math.Floor(r*s/u) + 0.5) * u
		c := tie / s
		for i := 0; i < 8; i++ {
			if FromSeconds(amount/c).SaturatingAdd(1) == dt && c*s == tie {
				return c
			}
			if c*s < tie {
				c = math.Nextafter(c, math.Inf(1))
			} else {
				c = math.Nextafter(c, 0)
			}
		}
	}
}
