// Procs run as iter.Pull coroutines, and package iter needs go1.23.
//go:build go1.23

package sim

import (
	"fmt"
	"iter"
)

// procKilled is the sentinel panic value used to unwind a parked process
// when the kernel is closed.
type procKilled struct{}

// Proc is a simulated process: a coroutine whose execution is interleaved
// with other processes only at explicit blocking points (Sleep, waits on
// sync primitives). Between blocking points a process runs to completion,
// so model code needs no locking.
//
// A Proc made by Waiter has no body: it is a callback that the
// primitives' non-parking registrations (WakeAfter, Cond.Await,
// Future.Await, PS.Submit) enqueue exactly where the blocking forms
// enqueue a parked process, and that runs where the process would
// resume. Code moved from a process body into waiter callbacks therefore
// schedules the same kernel events in the same order.
type Proc struct {
	k     *Kernel
	name  string
	fn    func(p *Proc) // nil once started
	w     *worker       // bound at the first step, released when fn returns
	wake  func()        // p.step, or a waiter's callback; bound once so wake-ups allocate nothing
	doneF *Future[struct{}]
}

// worker is a pooled coroutine that runs process bodies one after
// another. step switches into it with next; park and the end of a body
// switch back to the kernel loop with yield.
type worker struct {
	p     *Proc
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Go starts fn as a new simulated process. The process begins executing at
// the current simulated time, after all already-queued events for this
// instant. The returned Proc can be waited on via Done.
func (k *Kernel) Go(name string, fn func(p *Proc)) *Proc {
	p := k.newProc(name, fn)
	k.Schedule(0, p.wake)
	return p
}

// GoNow starts fn as a new simulated process and runs it within the
// current event, up to its first blocking point, with no kernel event of
// its own: the process picks up exactly where the caller stands. It
// promotes a waiter's callback into a process when the callback reaches
// work that must block, so it must be called in event context (a
// waiter's callback), not from a process body.
func (k *Kernel) GoNow(name string, fn func(p *Proc)) *Proc {
	p := k.newProc(name, fn)
	p.step()
	return p
}

func (k *Kernel) newProc(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name, fn: fn, doneF: NewFuture[struct{}](k)}
	p.wake = p.step
	k.live++
	return p
}

// Waiter returns a Proc with no body whose wake-ups run fn in event
// context. It is registered with the primitives' non-parking forms only;
// passing it to a blocking call (Sleep, Wait, Serve) or to Park panics.
// It is not a live process and has no Done future.
func (k *Kernel) Waiter(fn func()) *Proc { return &Proc{k: k, wake: fn} }

// step switches to the process and returns once it parks or exits. It
// must only be called from event context (the kernel loop).
func (p *Proc) step() {
	w := p.w
	if w == nil {
		w = p.k.bind(p)
	}
	w.next()
}

// Park suspends the process until its wake-up runs. It must only be
// called from the process's own body, after registering the process with
// a non-parking form (WakeAfter, Cond.Await, Future.Await, PS.Submit)
// that reported it must wait: each blocking call is that registration
// followed by Park.
func (p *Proc) Park() {
	if !p.w.yield(struct{}{}) {
		panic(procKilled{})
	}
}

// bind hands p to an idle worker, or to a new one if none is idle.
func (k *Kernel) bind(p *Proc) *worker {
	var w *worker
	if n := len(k.idle); n > 0 {
		w = k.idle[n-1]
		k.idle[n-1] = nil
		k.idle = k.idle[:n-1]
	} else {
		w = &worker{}
		w.next, w.stop = iter.Pull(w.loop)
		k.workers = append(k.workers, w)
	}
	w.p, p.w = p, w
	return w
}

// loop is the worker's coroutine body: run the bound process, then wait
// idle for the next one. It returns when Close stops the worker.
func (w *worker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for w.run() && yield(struct{}{}) {
	}
}

// run executes the bound process body and releases the process. It
// reports false if Close unwound the body.
func (w *worker) run() (reusable bool) {
	p, k := w.p, w.p.k
	defer func() {
		r := recover()
		w.p, p.w = nil, nil
		k.live--
		if _, ok := r.(procKilled); ok {
			return // kernel shutdown: unwind silently
		}
		reusable = true
		k.idle = append(k.idle, w)
		if r != nil {
			k.failure = fmt.Sprintf("sim: proc %q panicked: %v", p.name, r)
		} else {
			p.doneF.Set(struct{}{})
		}
	}()
	fn := p.fn
	p.fn = nil
	fn(p)
	return
}

// Kernel returns the kernel this process runs on.
func (p *Proc) Kernel() *Kernel { return p.k }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current simulated time.
func (p *Proc) Now() Time { return p.k.now }

// Done returns a future that resolves when the process function returns.
func (p *Proc) Done() *Future[struct{}] { return p.doneF }

// Sleep suspends the process for d simulated time. A non-positive d yields
// the processor for one scheduling round (other events at the current
// instant run first).
func (p *Proc) Sleep(d Time) {
	p.WakeAfter(d)
	p.Park()
}

// WakeAfter is Sleep's registration: it schedules p's wake-up d from now
// (a non-positive d: after the events already queued for this instant).
func (p *Proc) WakeAfter(d Time) {
	if d < 0 {
		d = 0
	}
	p.k.Schedule(d, p.wake)
}

// Yield is Sleep(0): lets all other events queued for the current instant
// run before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }
