package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// chainProg is one seeded program over two PSs: chain processes that each
// serve n quanta of one amount (re-chaining the rest after a cut), mixed
// with plain Serve/ServeAsync jobs, background pulses, capacity changes,
// Load readings and cut requests.
type chainProg struct {
	caps   [2]float64
	chains []chainSpec
	ops    []chainOp
}

type chainSpec struct {
	ps     int
	start  Time
	n      int
	amount float64
	pause  Time // sleep after a cut before serving the rest
}

type chainOpKind int

const (
	opAsync chainOpKind = iota
	opServe
	opPulse
	opCap
	opLoad
	opCut
)

type chainOp struct {
	at     Time
	ps     int
	kind   chainOpKind
	w      float64 // amount, background delta or capacity
	dur    Time    // pulse length
	target int     // chain cut by opCut
	// from, if positive, makes a process sleep from that instant to at
	// and run the operation on waking; otherwise an event queued before
	// the run starts runs it. child adds a zero-delay Load reading after
	// it, grandchild one more below that.
	from              Time
	child, grandchild bool
}

// run executes the program with chained (ServeChain) or eager (a Serve
// loop that checks its cut flag after every quantum) chain processes. It
// returns the observable trace, every instant at which some chain quantum
// completed, and the subset at which a chain process woke (in the eager
// run; the chained one cannot see them).
func (pr *chainProg) run(chained bool) (trace []string, bounds, wakes []Time) {
	k := NewKernel()
	defer k.Close()
	pss := [2]*PS{NewPS(k, pr.caps[0], 1), NewPS(k, pr.caps[1], 0)}
	logf := func(format string, args ...any) {
		trace = append(trace, fmt.Sprintf("%d ", k.Now())+fmt.Sprintf(format, args...))
	}
	state := func(i int) string {
		ps := pss[i]
		n := ps.Load()
		return fmt.Sprintf("ps%d load=%d v=%x", i, n, math.Float64bits(ps.virtual))
	}

	chains := make([]Chain, len(pr.chains))
	inLoop := make([]bool, len(pr.chains))
	cut := make([]bool, len(pr.chains))
	for i, cs := range pr.chains {
		i, cs := i, cs
		ps := pss[cs.ps]
		k.Go(fmt.Sprintf("chain%d", i), func(p *Proc) {
			if cs.start > 0 {
				p.Sleep(cs.start)
			}
			left := cs.n
			for left > 0 {
				served := 0
				if chained {
					served = ps.ServeChain(p, &chains[i], left, cs.amount)
				} else {
					inLoop[i] = true
					for served < left {
						ps.Serve(p, cs.amount)
						served++
						bounds = append(bounds, p.Now())
						if cut[i] {
							cut[i] = false
							break
						}
					}
					inLoop[i] = false
				}
				left -= served
				wakes = append(wakes, p.Now())
				logf("chain%d woke served=%d left=%d %s", i, served, left, state(cs.ps))
				if left > 0 && cs.pause > 0 {
					p.Sleep(cs.pause)
				}
			}
		})
	}

	for i, op := range pr.ops {
		i, op := i, op
		ps := pss[op.ps]
		var act func()
		act = func() {
			switch op.kind {
			case opAsync:
				ps.ServeAsync(op.w).OnDone(func(struct{}) { logf("async%d done %s", i, state(op.ps)) })
			case opServe:
				k.Go(fmt.Sprintf("serve%d", i), func(p *Proc) {
					ps.Serve(p, op.w)
					logf("serve%d woke %s", i, state(op.ps))
				})
			case opPulse:
				ps.AddBackground(op.w)
				k.Schedule(op.dur, func() {
					ps.AddBackground(-op.w)
					logf("pulse%d off %s", i, state(op.ps))
				})
			case opCap:
				ps.SetCapacity(op.w)
			case opCut:
				if chained {
					chains[op.target].Surface()
				} else if inLoop[op.target] {
					cut[op.target] = true
				}
			}
			logf("op%d kind=%d %s", i, op.kind, state(op.ps))
			if op.child {
				k.Schedule(0, func() {
					logf("op%d child %s", i, state(op.ps))
					if op.grandchild {
						k.Schedule(0, func() { logf("op%d grandchild %s", i, state(op.ps)) })
					}
				})
			}
		}
		if op.from > 0 {
			k.Go(fmt.Sprintf("sleeper%d", i), func(p *Proc) {
				p.Sleep(op.from)
				p.Sleep(op.at - op.from)
				act()
			})
		} else {
			k.ScheduleAt(op.at, act)
		}
	}
	k.Run()
	for i := range pss {
		logf("end %s", state(i))
	}
	return trace, bounds, wakes
}

// genChainProg draws a program, then adds operations that land exactly on
// chain quantum boundaries of the program so far (re-running it eagerly
// to find them, since each added operation moves the later boundaries).
func genChainProg(rng *rand.Rand) *chainProg {
	pr := &chainProg{caps: [2]float64{1 + float64(rng.Intn(4)), 0.5 + 3*rng.Float64()}}
	amounts := []float64{0.2, 0.2, 0.05, 0.1 + rng.Float64()}
	for i := 0; i < 2+rng.Intn(4); i++ {
		cs := chainSpec{
			ps:     rng.Intn(2),
			n:      5 + rng.Intn(60),
			amount: amounts[rng.Intn(len(amounts))],
		}
		if rng.Intn(3) > 0 {
			cs.start = Time(rng.Int63n(int64(3 * Second)))
		}
		if rng.Intn(6) == 0 {
			cs.n = psHorizon + rng.Intn(psHorizon)
		}
		if rng.Intn(2) == 0 {
			cs.pause = Time(rng.Int63n(int64(Second)))
		}
		pr.chains = append(pr.chains, cs)
	}
	// Twin chains on both PSs with equal starts and amounts finish quanta
	// at the same instants.
	if rng.Intn(2) == 0 {
		cs := pr.chains[0]
		cs.ps = 1 - cs.ps
		pr.caps[cs.ps] = pr.caps[1-cs.ps]
		pr.chains = append(pr.chains, cs)
	}
	randOp := func(at Time) chainOp {
		op := chainOp{at: at, ps: rng.Intn(2), kind: chainOpKind(rng.Intn(6))}
		switch op.kind {
		case opAsync, opServe:
			op.w = amounts[rng.Intn(len(amounts))]
			if rng.Intn(2) == 0 {
				op.w = 0.01 + 2*rng.Float64()
			}
		case opPulse:
			op.w = 0.25 + 2*rng.Float64()
			op.dur = Time(1 + rng.Int63n(int64(4*Second)))
		case opCap:
			op.w = 0.5 + 3.5*rng.Float64()
		case opCut:
			op.target = rng.Intn(len(pr.chains))
			op.ps = pr.chains[op.target].ps
		}
		op.child = rng.Intn(3) == 0
		op.grandchild = op.child && rng.Intn(2) == 0
		return op
	}
	for i := 0; i < 10+rng.Intn(20); i++ {
		op := randOp(Time(rng.Int63n(int64(15 * Second))))
		if rng.Intn(3) == 0 {
			op.from = Time(1 + rng.Int63n(int64(op.at)))
		}
		pr.ops = append(pr.ops, op)
	}
	for i := 0; i < 8; i++ {
		_, bounds, wakes := pr.run(false)
		if len(bounds) == 0 {
			break
		}
		sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })
		isBound := func(x Time) bool {
			j := sort.Search(len(bounds), func(j int) bool { return bounds[j] >= x })
			return j < len(bounds) && bounds[j] == x
		}
		// Half land where a process wakes, so the PS's own kernel event
		// fires at the same instant.
		op := randOp(bounds[rng.Intn(len(bounds))])
		if rng.Intn(2) == 0 {
			op = randOp(wakes[rng.Intn(len(wakes))])
		}
		if rng.Intn(2) == 0 {
			// Sleep from an instant that is no boundary: from well
			// before, or from within the quantum that ends at op.at.
			lo := Time(1)
			if rng.Intn(2) == 0 {
				j := sort.Search(len(bounds), func(j int) bool { return bounds[j] >= op.at })
				if j > 0 {
					lo = bounds[j-1] + 1
				}
			}
			for try := 0; try < 10 && op.at > lo; try++ {
				if f := lo + Time(rng.Int63n(int64(op.at-lo))); !isBound(f) {
					op.from = f
					break
				}
			}
		}
		pr.ops = append(pr.ops, op)
	}
	return pr
}

// TestPSChainMatchesServeLoop is the chain's equivalence contract: on
// seeded random programs, including operations at the very instant a
// chain quantum completes, ServeChain gives the same trace as the Serve
// loop it replaces — completion instants, Load readings, the virtual-time
// accumulator bit for bit, and the order in which processes wake.
func TestPSChainMatchesServeLoop(t *testing.T) {
	for seed := int64(1); seed <= 120; seed++ {
		rng := rand.New(rand.NewSource(seed))
		pr := genChainProg(rng)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			want, _, _ := pr.run(false)
			got, _, _ := pr.run(true)
			diffTrace(t, "chained vs eager", want, got)
		})
	}
}
