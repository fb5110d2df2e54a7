package sim

import "fmt"

// Logger receives kernel trace output when tracing is enabled.
type Logger interface {
	Logf(format string, args ...any)
}

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
type event struct {
	at    Time
	seq   uint64
	fn    func()
	k     *Kernel
	index int    // overflow-heap position; -1 once popped or removed
	next  *event // wheel slot chain / ready chain / free list
	prev  *event // wheel slot chain (doubly linked for O(1) cancel)
	state uint8
	lvl   uint8 // wheel level, lvlOverflow, or lvlReady
	slot  uint8 // wheel slot within lvl
}

// Event is a cheap value handle to a scheduled event, usable to cancel it.
// The zero Event refers to no event: Cancel is a no-op and Pending reports
// false. Handles stay valid (as inert no-ops) after the event fires, even
// though the queue may recycle the underlying struct.
type Event struct {
	ev  *event
	seq uint64
}

// Cancel removes the event from the queue. It is a no-op if the event has
// already fired or been cancelled. Reports whether the event was cancelled.
func (e Event) Cancel() bool {
	ev := e.ev
	if ev == nil || ev.seq != e.seq || ev.state != statePending {
		return false
	}
	ev.k.cancelled++
	ev.k.q.cancel(ev)
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
	trace     Logger
	closed    bool
}

// NewKernel returns a kernel with the clock at the epoch.
func NewKernel() *Kernel { return &Kernel{} }

// Stats returns scheduler activity counters (for profiling and the
// events/sec benchmarks).
func (k *Kernel) Stats() Stats {
	return Stats{Scheduled: k.scheduled, Executed: k.executed, Cancelled: k.cancelled}
}

// SetTrace installs a trace logger (nil disables tracing).
func (k *Kernel) SetTrace(l Logger) { k.trace = l }

// Tracef emits a trace line prefixed with the current simulated time.
func (k *Kernel) Tracef(format string, args ...any) {
	if k.trace != nil {
		k.trace.Logf("[%s] %s", k.now, fmt.Sprintf(format, args...))
	}
}

// Now returns the current simulated time.
func (k *Kernel) Now() Time { return k.now }

// Schedule queues fn to run after delay. A negative delay panics.
// The returned handle may be used to cancel the event.
func (k *Kernel) Schedule(delay Time, fn func()) Event {
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
	ev.k = k
	ev.state = statePending
	k.seq++
	k.scheduled++
	k.q.schedule(ev)
	return Event{ev: ev, seq: ev.seq}
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
		k.now = ev.at
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
