package sim

import "fmt"

// Stats counts scheduler activity since kernel creation.
type Stats struct {
	Scheduled uint64 // events accepted by Schedule/ScheduleAt
	Executed  uint64 // events that fired
	Cancelled uint64 // events cancelled before firing
}

// event states. A pooled event is recycled once it leaves statePending, so
// Event handles revalidate via the seq ticket before touching one.
const (
	stateFree uint8 = iota
	statePending
	stateFired
	stateCancelled
)

// event is a scheduled callback. Events with equal fire times execute in
// the order they were scheduled (FIFO by seq).
// The struct is kept at 64 bytes, one allocation size class below 80
// (TestEventSize); its kernel is carried by the Event handle instead.
type event struct {
	at    Time
	seq   uint64
	fn    func()
	next  *event // wheel slot chain / ready chain / free list
	prev  *event // wheel slot chain (doubly linked for O(1) cancel)
	pl    place  // where it runs among the events of its instant
	index int32  // overflow-heap position; -1 once popped or removed
	state uint8
	lvl   uint8 // wheel level, lvlOverflow, or lvlReady
	slot  uint8 // wheel slot within lvl
}

// place orders the events of one instant. An event scheduled at time s
// with seq q sits at seqPlace(s, q). Because seq grows with time, ordering
// by place is ordering by seq; the spare values between let a PS queue an
// event where the eager event it stands for would have been (see
// psTrack.plan). Only this file knows how a place is laid out.
type place struct {
	s int64  // schedule time
	b uint64 // within it: a seq's place, a gap's, or lateBit plus an order
}

func (x place) less(y place) bool { return x.s < y.s || x.s == y.s && x.b < y.b }

// placeSub is how many places fit between two consecutive seqs.
const placeSub = 16

// lateBit marks the places after every seq: (2q+1)<<placeSub stays below
// it for every seq below maxSeq.
const (
	lateBit = 1 << 63
	maxSeq  = 1 << (63 - placeSub - 1)
)

// seqPlace is the place of an event scheduled at time s with seq q.
func seqPlace(s Time, q uint64) place { return place{int64(s), (2*q + 1) << placeSub} }

// gapPlace is the i-th place just before seq q at time s: that of the i-th
// of several events that would have been scheduled there had they been
// queued, which takes no seq.
func gapPlace(s Time, q uint64, i int) place {
	return place{int64(s), q<<(placeSub+1) + uint64(i)}
}

// latePlace is a place after every event scheduled at time s, ordered
// among its kind by q.
func latePlace(s Time, q uint64) place { return place{int64(s), lateBit | q} }

// evLess orders queued events by fire time, then place.
func evLess(x, y *event) bool {
	if x.at != y.at {
		return x.at < y.at
	}
	return x.pl.less(y.pl)
}

// Event is a cheap value handle to a scheduled event, usable to cancel it.
// The zero Event refers to no event: Cancel is a no-op and Pending reports
// false. Handles stay valid (as inert no-ops) after the event fires, even
// though the queue may recycle the underlying struct.
type Event struct {
	ev  *event
	seq uint64
	k   *Kernel
}

// Cancel removes the event from the queue. It is a no-op if the event has
// already fired or been cancelled. Reports whether the event was cancelled.
func (e Event) Cancel() bool {
	ev := e.ev
	if ev == nil || ev.seq != e.seq || ev.state != statePending {
		return false
	}
	e.k.cancelled++
	e.k.q.cancel(ev)
	return true
}

// Pending reports whether the event is still queued.
func (e Event) Pending() bool {
	return e.ev != nil && e.ev.seq == e.seq && e.ev.state == statePending
}

// Kernel is a discrete-event simulation engine. A Kernel is not safe for
// concurrent use: its processes are coroutines that run only while the
// kernel loop has switched to them.
type Kernel struct {
	now       Time
	seq       uint64
	q         wheelQueue
	scheduled uint64
	executed  uint64
	cancelled uint64
	live      int       // started processes that have not exited
	workers   []*worker // every worker coroutine, for Close to stop
	idle      []*worker // workers with no process bound
	running   bool
	stopReq   bool // cooperative Stop() requested; consumed by RunUntil
	failure   any  // first panic propagated from a proc
	closed    bool
	cur       place // place of the running event
	// inst logs, for the events of the current instant that were
	// scheduled before it and the first one scheduled during it, each
	// one's place and the seq it started at.
	inst   []instMark
	instAt Time
}

type instMark struct {
	at  place
	seq uint64
}

// NewKernel returns a kernel with the clock at the epoch.
func NewKernel() *Kernel { return &Kernel{} }

// Stats returns scheduler activity counters (for profiling and the
// events/sec benchmarks).
func (k *Kernel) Stats() Stats {
	return Stats{Scheduled: k.scheduled, Executed: k.executed, Cancelled: k.cancelled}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Schedule queues fn to run after delay. A negative delay panics.
// The returned handle may be used to cancel the event.
func (k *Kernel) Schedule(delay Time, fn func()) Event {
	return k.schedule(delay, fn, place{}, false)
}

// schedulePlaced queues fn after delay at place at of its instant.
func (k *Kernel) schedulePlaced(delay Time, fn func(), at place) Event {
	return k.schedule(delay, fn, at, true)
}

// schedule queues fn after delay, at place at if placed, else at the
// place of the current time and seq.
func (k *Kernel) schedule(delay Time, fn func(), at place, placed bool) Event {
	if delay < 0 {
		panic(fmt.Sprintf("sim: Schedule with negative delay %v", delay))
	}
	if k.closed {
		panic("sim: Schedule on closed kernel")
	}
	ev := k.q.alloc()
	ev.at = k.now.SaturatingAdd(delay)
	ev.seq = k.seq
	ev.fn = fn
	ev.state = statePending
	ev.pl = at
	if !placed {
		ev.pl = k.here()
	}
	k.seq++
	if k.seq == maxSeq {
		panic("sim: event seq space exhausted")
	}
	k.scheduled++
	if delay == 0 && placed && k.running {
		// An event placed at the running instant takes its place among
		// the events of the instant still to run.
		k.q.insertNow(ev)
	} else {
		k.q.schedule(ev)
	}
	return Event{ev: ev, seq: ev.seq, k: k}
}

// here is the place an event scheduled now takes at its instant.
func (k *Kernel) here() place { return seqPlace(k.now, k.seq) }

// curPlace is where the running code sits among the events of the
// current instant; code outside Run comes after all of them.
func (k *Kernel) curPlace() place {
	if !k.running {
		return latePlace(k.now, 0)
	}
	return k.cur
}

// seqAfter returns the kernel seq at the point of the current instant
// where an event at place at would have run: events scheduled before that
// point have smaller seqs.
func (k *Kernel) seqAfter(at place) uint64 {
	for _, m := range k.inst {
		if at.less(m.at) {
			return m.seq
		}
	}
	return k.seq
}

// gapAfter is the i-th place of the gap where the children of an event at
// place at of the current instant would have been scheduled, had they
// been queued.
func (k *Kernel) gapAfter(at place, i int) place { return gapPlace(k.now, k.seqAfter(at), i) }

// gapHere is the place of an event that would have been scheduled now,
// had it been queued: the first of the gap before the next seq, or, if
// prev (nil for none) is already in that gap, the one after it, so that
// several keep their order.
func (k *Kernel) gapHere(prev *place) place {
	at := gapPlace(k.now, k.seq, 0)
	if prev != nil && prev.s == at.s && prev.b>>(placeSub+1) == k.seq {
		at.b = prev.b + 1
	}
	return at
}

// ScheduleAt queues fn to run at absolute time at, which must not be in
// the past.
func (k *Kernel) ScheduleAt(at Time, fn func()) Event {
	if at < k.now {
		panic(fmt.Sprintf("sim: ScheduleAt %v is before now %v", at, k.now))
	}
	return k.Schedule(at-k.now, fn)
}

// Run executes events until the queue is empty. It returns the final
// simulated time. If any process panicked, Run re-panics with that value.
func (k *Kernel) Run() Time { return k.RunUntil(MaxTime) }

// Stop makes the in-flight Run/RunUntil return once the current event's
// callback completes, leaving the clock at the last executed event and
// every later event queued. It is the cooperative cancellation point for
// drivers that must abandon a long simulation cleanly (e.g. on SIGINT):
// call it from an event callback or process body, let Run return, then
// Close to unwind parked processes. A pending stop request is consumed by
// the next Run/RunUntil if none is in flight.
func (k *Kernel) Stop() { k.stopReq = true }

// RunUntil executes events with fire times <= deadline, then sets the clock
// to min(deadline, time of last executed event). Events after deadline stay
// queued; a later RunUntil call continues from where this one stopped.
func (k *Kernel) RunUntil(deadline Time) Time {
	if k.running {
		panic("sim: RunUntil called re-entrantly")
	}
	k.running = true
	defer func() { k.running = false }()
	for {
		if k.stopReq {
			k.stopReq = false
			return k.now
		}
		ev := k.q.pop(deadline)
		if ev == nil {
			break
		}
		if ev.at < k.now {
			panic("sim: event time went backwards")
		}
		if ev.at != k.instAt {
			k.inst, k.instAt = k.inst[:0], ev.at
		}
		if n := len(k.inst); n == 0 || k.inst[n-1].at.s < int64(ev.at) {
			k.inst = append(k.inst, instMark{ev.pl, k.seq})
		}
		k.now = ev.at
		k.cur = ev.pl
		fn := ev.fn
		ev.fn = nil
		ev.state = stateFired
		k.q.freeEvent(ev)
		k.executed++
		fn()
		if k.failure != nil {
			f := k.failure
			k.failure = nil
			panic(f)
		}
	}
	if deadline != MaxTime && deadline > k.now {
		k.now = deadline
	}
	return k.now
}

// Idle reports whether no events are queued.
func (k *Kernel) Idle() bool { return k.q.n == 0 }

// PendingEvents returns the number of queued events.
func (k *Kernel) PendingEvents() int { return k.q.n }

// LiveProcs returns the number of processes that have been started and have
// not yet exited (including parked ones).
func (k *Kernel) LiveProcs() int { return k.live }

// Close terminates every parked process by unwinding its body, stops every
// worker coroutine, then marks the kernel unusable. Processes that never
// ran are dropped. It is safe to call after Run returns; it lets tests
// assert no goroutines leak. Close must not be called from within a
// simulation event.
func (k *Kernel) Close() {
	if k.running {
		panic("sim: Close called from inside the simulation")
	}
	if k.closed {
		return
	}
	k.closed = true
	for _, w := range k.workers {
		w.stop()
	}
	k.workers, k.idle, k.live = nil, nil, 0
	k.q.clear()
}
