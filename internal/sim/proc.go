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
type Proc struct {
	k     *Kernel
	name  string
	fn    func(p *Proc) // nil once started
	w     *worker       // bound at the first step, released when fn returns
	wake  func()        // p.step, bound once so wake-ups allocate nothing
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
	p := &Proc{k: k, name: name, fn: fn, doneF: NewFuture[struct{}](k)}
	p.wake = p.step
	k.Schedule(0, p.wake)
	k.live++
	return p
}

// step switches to the process and returns once it parks or exits. It
// must only be called from event context (the kernel loop).
func (p *Proc) step() {
	w := p.w
	if w == nil {
		w = p.k.bind(p)
	}
	w.next()
}

// park suspends the process until some event calls step. It must only be
// called from the process's own body.
func (p *Proc) park() {
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
	if d < 0 {
		d = 0
	}
	p.k.Schedule(d, p.wake)
	p.park()
}

// Yield is Sleep(0): lets all other events queued for the current instant
// run before the process continues.
func (p *Proc) Yield() { p.Sleep(0) }
