package sim

// Future is a write-once value that processes can wait on.
type Future[T any] struct {
	k       *Kernel
	done    bool
	val     T
	waiters []*Proc
	cbs     []func(T)
}

// NewFuture returns an unresolved future bound to k.
func NewFuture[T any](k *Kernel) *Future[T] { return &Future[T]{k: k} }

// Done reports whether the future has been resolved.
func (f *Future[T]) Done() bool { return f.done }

// Value returns the resolved value; it panics if the future is unresolved.
func (f *Future[T]) Value() T {
	if !f.done {
		panic("sim: Future.Value on unresolved future")
	}
	return f.val
}

// Set resolves the future and wakes all waiters. Setting an already
// resolved future panics (futures are write-once).
func (f *Future[T]) Set(v T) {
	if f.done {
		panic("sim: Future.Set on already-resolved future")
	}
	f.done = true
	f.val = v
	waiters := f.waiters
	f.waiters = nil
	cbs := f.cbs
	f.cbs = nil
	for _, p := range waiters {
		f.k.Schedule(0, p.wake)
	}
	for _, cb := range cbs {
		cb := cb
		f.k.Schedule(0, func() { cb(v) })
	}
}

// Wait blocks the process until the future resolves, then returns its value.
func (f *Future[T]) Wait(p *Proc) T {
	if !f.Await(p) {
		p.Park()
	}
	return f.val
}

// Await is Wait's registration: it reports whether the future has
// resolved, and if not, queues w to be woken when it does.
func (f *Future[T]) Await(w *Proc) bool {
	if f.done {
		return true
	}
	f.waiters = append(f.waiters, w)
	return false
}

// OnDone registers cb to run (in event context) once the future resolves.
// If already resolved, cb is scheduled immediately.
func (f *Future[T]) OnDone(cb func(T)) {
	if f.done {
		v := f.val
		f.k.Schedule(0, func() { cb(v) })
		return
	}
	f.cbs = append(f.cbs, cb)
}

// WaitTimeout blocks until f resolves or d elapses, whichever comes first.
// ok reports whether the future resolved within the window; on timeout the
// zero value is returned and the future is left untouched (it may still
// resolve later for other waiters). A non-positive d degenerates to a
// plain Wait. This is the primitive watchdogs are built from: it bounds a
// wait in simulated time without cancelling the underlying operation.
func WaitTimeout[T any](p *Proc, f *Future[T], d Time) (v T, ok bool) {
	if f.Done() {
		return f.Value(), true
	}
	if d <= 0 {
		return f.Wait(p), true
	}
	race := NewFuture[bool](f.k)
	f.OnDone(func(T) {
		if !race.Done() {
			race.Set(true)
		}
	})
	timer := f.k.Schedule(d, func() {
		if !race.Done() {
			race.Set(false)
		}
	})
	if race.Wait(p) {
		timer.Cancel()
		return f.Value(), true
	}
	return v, false
}

// Chan is a simulated channel with FIFO semantics and an optional buffer,
// analogous to a Go channel but integrated with the simulation clock.
type Chan[T any] struct {
	k      *Kernel
	buf    []T
	cap    int // 0 = rendezvous
	sendq  []*chanSend[T]
	recvq  []*chanRecv[T]
	closed bool
}

type chanSend[T any] struct {
	p   *Proc
	val T
	ok  bool // delivered
}

type chanRecv[T any] struct {
	p   *Proc
	val T
	ok  bool // received a value (false once closed and drained)
	set bool
}

// NewChan returns a simulated channel with the given buffer capacity.
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: NewChan with negative capacity")
	}
	return &Chan[T]{k: k, cap: capacity}
}

// Len returns the number of buffered values.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Close closes the channel; pending and future receives complete with
// ok=false once the buffer drains. Sending on a closed channel panics.
func (c *Chan[T]) Close() {
	if c.closed {
		panic("sim: close of closed Chan")
	}
	c.closed = true
	if len(c.buf) == 0 {
		recvq := c.recvq
		c.recvq = nil
		for _, r := range recvq {
			r.set = true
			c.k.Schedule(0, r.p.wake)
		}
	}
}

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Send delivers v, blocking while the buffer is full (or, for a rendezvous
// channel, until a receiver arrives).
func (c *Chan[T]) Send(p *Proc, v T) {
	if c.closed {
		panic("sim: send on closed Chan")
	}
	// Direct handoff to a waiting receiver.
	if len(c.recvq) > 0 {
		r := c.recvq[0]
		c.recvq = c.recvq[1:]
		r.val, r.ok, r.set = v, true, true
		c.k.Schedule(0, r.p.wake)
		return
	}
	if len(c.buf) < c.cap {
		c.buf = append(c.buf, v)
		return
	}
	s := &chanSend[T]{p: p, val: v}
	c.sendq = append(c.sendq, s)
	p.Park()
	if !s.ok {
		panic("sim: Chan send woken without delivery")
	}
}

// Recv returns the next value. ok is false if the channel is closed and
// drained.
func (c *Chan[T]) Recv(p *Proc) (v T, ok bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		// Promote a blocked sender into the freed buffer slot.
		if len(c.sendq) > 0 {
			s := c.sendq[0]
			c.sendq = c.sendq[1:]
			c.buf = append(c.buf, s.val)
			s.ok = true
			c.k.Schedule(0, s.p.wake)
		}
		return v, true
	}
	if len(c.sendq) > 0 { // rendezvous handoff
		s := c.sendq[0]
		c.sendq = c.sendq[1:]
		s.ok = true
		c.k.Schedule(0, s.p.wake)
		return s.val, true
	}
	if c.closed {
		var zero T
		return zero, false
	}
	r := &chanRecv[T]{p: p}
	c.recvq = append(c.recvq, r)
	p.Park()
	if !r.set {
		panic("sim: Chan recv woken without value")
	}
	return r.val, r.ok
}

// TryRecv receives without blocking; ok reports whether a value was taken.
func (c *Chan[T]) TryRecv() (v T, ok bool) {
	if len(c.buf) > 0 {
		v = c.buf[0]
		c.buf = c.buf[1:]
		if len(c.sendq) > 0 {
			s := c.sendq[0]
			c.sendq = c.sendq[1:]
			c.buf = append(c.buf, s.val)
			s.ok = true
			c.k.Schedule(0, s.p.wake)
		}
		return v, true
	}
	if len(c.sendq) > 0 {
		s := c.sendq[0]
		c.sendq = c.sendq[1:]
		s.ok = true
		c.k.Schedule(0, s.p.wake)
		return s.val, true
	}
	var zero T
	return zero, false
}

// WaitGroup counts outstanding work items, like sync.WaitGroup but
// simulation-aware.
type WaitGroup struct {
	k       *Kernel
	count   int
	waiters []*Proc
}

// NewWaitGroup returns a WaitGroup bound to k.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{k: k} }

// Add increments the counter by n (n may be negative, like Done).
func (wg *WaitGroup) Add(n int) {
	wg.count += n
	if wg.count < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if wg.count == 0 {
		waiters := wg.waiters
		wg.waiters = nil
		for _, p := range waiters {
			wg.k.Schedule(0, p.wake)
		}
	}
}

// Done decrements the counter by one.
func (wg *WaitGroup) Done() { wg.Add(-1) }

// Wait blocks until the counter reaches zero.
func (wg *WaitGroup) Wait(p *Proc) {
	if wg.count == 0 {
		return
	}
	wg.waiters = append(wg.waiters, p)
	p.Park()
}

// Cond is a simulation-aware condition variable. Because processes run to
// completion between blocking points there is no associated lock; Wait
// simply parks until Signal or Broadcast.
type Cond struct {
	k       *Kernel
	waiters []*Proc
}

// NewCond returns a condition variable bound to k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait parks the process until a Signal or Broadcast.
func (c *Cond) Wait(p *Proc) {
	c.Await(p)
	p.Park()
}

// Await is Wait's registration: it queues w to be woken by a Signal or
// Broadcast.
func (c *Cond) Await(w *Proc) { c.waiters = append(c.waiters, w) }

// Signal wakes the longest-waiting process, if any. The waiter array is
// kept, so later Waits append without allocating.
func (c *Cond) Signal() {
	if len(c.waiters) == 0 {
		return
	}
	p := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = nil
	c.waiters = c.waiters[:n]
	c.k.Schedule(0, p.wake)
}

// Broadcast wakes every waiting process, keeping the waiter array for
// later Waits.
func (c *Cond) Broadcast() {
	for i, p := range c.waiters {
		c.waiters[i] = nil
		c.k.Schedule(0, p.wake)
	}
	c.waiters = c.waiters[:0]
}

// Waiting returns the number of parked waiters.
func (c *Cond) Waiting() int { return len(c.waiters) }
