package sim

import (
	"fmt"
	"math/rand"
	"testing"
)

// The kernel oracle: a randomized schedule/cancel/RunUntil program is run
// against a naive sorted-slice reference executor and against the real
// kernel, and the full execution traces must be identical. This is the
// license to refactor the event-queue hot path freely.

// oracleEngine abstracts the scheduler under test so the same seeded
// program can drive the reference executor and the real kernel.
type oracleEngine interface {
	now() Time
	pending() int
	schedule(delay Time, fn func()) func() bool // returns the cancel func
	runUntil(deadline Time)
	run()
}

// refEvent / refEngine: the obviously-correct reference — a flat slice,
// scanned for the (at, seq) minimum on every pop. Mirrors the kernel's
// documented semantics: FIFO among equal fire times, clock bumped to the
// deadline after a bounded run, cancel is a no-op once fired.
type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	done bool // fired or cancelled
}

type refEngine struct {
	cur Time
	seq uint64
	evs []*refEvent
}

func (e *refEngine) now() Time { return e.cur }

func (e *refEngine) pending() int {
	n := 0
	for _, ev := range e.evs {
		if !ev.done {
			n++
		}
	}
	return n
}

func (e *refEngine) schedule(delay Time, fn func()) func() bool {
	ev := &refEvent{at: e.cur.SaturatingAdd(delay), seq: e.seq, fn: fn}
	e.seq++
	e.evs = append(e.evs, ev)
	return func() bool {
		if ev.done {
			return false
		}
		ev.done = true
		ev.fn = nil
		return true
	}
}

func (e *refEngine) runUntil(deadline Time) {
	for {
		var best *refEvent
		for _, ev := range e.evs {
			if ev.done || ev.at > deadline {
				continue
			}
			if best == nil || ev.at < best.at || (ev.at == best.at && ev.seq < best.seq) {
				best = ev
			}
		}
		if best == nil {
			break
		}
		e.cur = best.at
		best.done = true
		fn := best.fn
		best.fn = nil
		fn()
	}
	if deadline != MaxTime && deadline > e.cur {
		e.cur = deadline
	}
}

func (e *refEngine) run() { e.runUntil(MaxTime) }

type kernelEngine struct {
	k *Kernel
}

func (e *kernelEngine) now() Time    { return e.k.Now() }
func (e *kernelEngine) pending() int { return e.k.PendingEvents() }
func (e *kernelEngine) run()         { e.k.Run() }
func (e *kernelEngine) runUntil(d Time) {
	e.k.RunUntil(d)
}

func (e *kernelEngine) schedule(delay Time, fn func()) func() bool {
	return e.k.Schedule(delay, fn).Cancel
}

// oracleProgram drives eng with a seeded random program and returns the
// execution trace. The program exercises nested scheduling from inside
// callbacks, cancellation (from outside and inside callbacks, including
// double-cancels and cancels of already-fired events), bounded RunUntil
// segments, zero delays, same-instant collisions, delays spanning every
// timer-wheel level, and the >2^48 ns overflow region. The rng is consumed
// inside callbacks too, so any divergence in execution order derails the
// remainder of the trace — small bugs produce loud diffs.
func oracleProgram(seed int64, eng oracleEngine) []string {
	rng := rand.New(rand.NewSource(seed))
	var trace []string
	var handles []func() bool
	nextID := 0
	budget := 2500

	randomDelay := func() Time {
		switch rng.Intn(10) {
		case 0:
			return 0
		case 1:
			return Time(rng.Int63n(64)) // level 0
		case 2:
			return Time(rng.Int63n(8)) * 4096 // cross-level collisions
		case 3:
			return Time(1)<<48 + Time(rng.Int63n(1<<50)) // overflow region
		default:
			lvl := uint(rng.Intn(8))
			return Time(rng.Int63n(1 << (6*lvl + 6)))
		}
	}

	var fire func(id int) func()
	fire = func(id int) func() {
		return func() {
			trace = append(trace, fmt.Sprintf("fire %d @%d", id, eng.now()))
			for rng.Intn(3) == 0 && budget > 0 {
				budget--
				cid := nextID
				nextID++
				handles = append(handles, eng.schedule(randomDelay(), fire(cid)))
			}
			if rng.Intn(4) == 0 && len(handles) > 0 {
				i := rng.Intn(len(handles))
				trace = append(trace, fmt.Sprintf("cancel %d -> %v", i, handles[i]()))
			}
		}
	}

	for seg := 0; seg < 12; seg++ {
		n := rng.Intn(40)
		for i := 0; i < n && budget > 0; i++ {
			budget--
			cid := nextID
			nextID++
			handles = append(handles, eng.schedule(randomDelay(), fire(cid)))
		}
		for i := 0; i < 10 && len(handles) > 0; i++ {
			j := rng.Intn(len(handles))
			trace = append(trace, fmt.Sprintf("cancel %d -> %v", j, handles[j]()))
		}
		eng.runUntil(eng.now().SaturatingAdd(randomDelay()))
		trace = append(trace, fmt.Sprintf("seg %d now=%d pending=%d", seg, eng.now(), eng.pending()))
	}
	eng.run()
	trace = append(trace, fmt.Sprintf("end now=%d pending=%d", eng.now(), eng.pending()))
	return trace
}

func diffTrace(t *testing.T, name string, want, got []string) {
	t.Helper()
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			t.Fatalf("%s: trace diverges at %d:\n  reference: %s\n  %s", name, i, want[i], got[i])
		}
	}
	if len(want) != len(got) {
		t.Fatalf("%s: trace length %d, reference %d", name, len(got), len(want))
	}
}

func TestKernelOracle(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			ref := oracleProgram(seed, &refEngine{})
			k := NewKernel()
			defer k.Close()
			diffTrace(t, "kernel", ref, oracleProgram(seed, &kernelEngine{k: k}))
			if !k.Idle() {
				t.Fatal("kernel not idle after Run")
			}
		})
	}
}

// TestKernelOracleDense floods a narrow time range so level-0 slots,
// ready-chain ordering, and pooled-event recycling are all stressed with
// heavy same-instant collisions.
func TestKernelOracleDense(t *testing.T) {
	run := func(eng oracleEngine) []string {
		rng := rand.New(rand.NewSource(7))
		var trace []string
		for i := 0; i < 500; i++ {
			id := i
			eng.schedule(Time(rng.Int63n(97)), func() {
				trace = append(trace, fmt.Sprintf("%d@%d", id, eng.now()))
			})
		}
		eng.run()
		return trace
	}
	k := NewKernel()
	defer k.Close()
	diffTrace(t, "dense", run(&refEngine{}), run(&kernelEngine{k: k}))
}

// TestKernelOracleHighTimes floods the instants around 2^62 ns, so events
// scheduled below it and events scheduled above it by their children
// share fire times: a place must order them by seq at any time up to
// MaxTime.
func TestKernelOracleHighTimes(t *testing.T) {
	run := func(eng oracleEngine) []string {
		rng := rand.New(rand.NewSource(13))
		var trace []string
		eng.runUntil(Time(1)<<62 - 50)
		var fire func(id int) func()
		fire = func(id int) func() {
			return func() {
				trace = append(trace, fmt.Sprintf("%d@%d", id, eng.now()))
				if id < 1000 {
					eng.schedule(Time(rng.Int63n(40)), fire(id+500))
				}
			}
		}
		for i := 0; i < 500; i++ {
			eng.schedule(Time(rng.Int63n(100)), fire(i))
		}
		eng.run()
		return trace
	}
	k := NewKernel()
	defer k.Close()
	diffTrace(t, "high", run(&refEngine{}), run(&kernelEngine{k: k}))
}
