package mpi

import (
	"fmt"
	"slices"

	"repro/internal/mpi/btl"
	"repro/internal/sim"
)

// Wildcards for Recv matching.
const (
	AnySource = -1
	AnyTag    = -1
)

// rendezvousHeaderBytes is the RTS control message size.
const rendezvousHeaderBytes = 64

// message is a delivered (or announced, for rendezvous) point-to-point
// message sitting in a rank's matching engine. Once its receive completes
// it goes back to the job's free list.
type message struct {
	src    int
	sender *Rank
	tag    int
	bytes  float64
	// rndv marks a rendezvous announcement: the receiver sets cts (its
	// clear-to-send) when it matches the message, and the sender sets
	// landed once the payload is on the receiver. The sender does not
	// touch the message after setting landed.
	rndv, cts, landed bool
}

// recvReq is a posted receive awaiting a match. deliver sets msg and
// matched.
type recvReq struct {
	src, tag int
	matched  bool
	msg      *message
}

// matches reports whether a receive posted for (src, tag) takes m.
func matches(src, tag int, m *message) bool {
	return (src == AnySource || src == m.src) && (tag == AnyTag || tag == m.tag)
}

// recycled pops an object off the free list *free, or allocates one.
func recycled[T any](free *[]*T) *T {
	n := len(*free)
	if n == 0 {
		return new(T)
	}
	x := (*free)[n-1]
	(*free)[n-1] = nil
	*free = (*free)[:n-1]
	return x
}

// Send delivers bytes to rank dst with the given tag. Small messages use
// the eager protocol (sender returns once the payload is buffered at the
// receiver); large messages rendezvous (sender blocks until the receiver
// posts a matching Recv and the payload transfer completes).
func (r *Rank) Send(p *sim.Proc, dst, tag int, bytes float64) error {
	op := recycled(&r.job.freeOps)
	op.begin(r, p, true, dst, tag, bytes)
	for !op.step() {
		p.Park()
	}
	err := op.err
	*op = sendOp{}
	r.job.freeOps = append(r.job.freeOps, op)
	return err
}

// sendOp is one Send in progress: a machine that runs the protocol a step
// at a time, registering its waiter wherever the send waits. The waiter
// is either the process that called Send, or the callback that runs the
// send half of a Sendrecv; both take the same steps, so both schedule the
// same kernel events.
type sendOp struct {
	r      *Rank
	w      *sim.Proc // registered at each wait
	isProc bool      // w is a process, which can run the checkpoint handler
	dst    int
	tag    int
	bytes  float64
	state  uint8
	err    error // the outcome, once step reports true

	peer *Rank
	msg  *message
	mod  btl.Module
	x    btl.Xfer
}

// sendOp steps.
const (
	sendStart   = iota
	sendFirst   // the eager payload, or the rendezvous RTS header, is in transfer
	sendCTS     // waiting for the receiver's clear-to-send
	sendPayload // the rendezvous payload is in transfer
)

// begin readies op for a send whose waits register w.
func (op *sendOp) begin(r *Rank, w *sim.Proc, isProc bool, dst, tag int, bytes float64) {
	*op = sendOp{r: r, w: w, isProc: isProc, dst: dst, tag: tag, bytes: bytes}
}

// step advances the send: it reports true once it is done (op.err holds
// the outcome) and false when it waits for w's wake-up. A callback that
// finds a checkpoint to join promotes itself to a process, which then
// owns the rest of the send, and reports false.
func (op *sendOp) step() bool {
	r := op.r
	switch op.state {
	case sendStart:
		if op.dst < 0 || op.dst >= len(r.job.ranks) {
			op.err = fmt.Errorf("%w: send to %d", ErrRankRange, op.dst)
			return true
		}
		r.spinBegin()
		op.peer = r.job.ranks[op.dst]
		mod, err := r.btls.Select(op.peer)
		if err != nil {
			return op.end(err)
		}
		op.msg = recycled(&r.job.freeMsgs)
		*op.msg = message{src: r.id, sender: r, tag: op.tag, bytes: op.bytes, rndv: op.bytes > eagerLimit}
		// Rendezvous: RTS header, wait for CTS, then the payload.
		first := op.bytes
		if op.msg.rndv {
			first = rendezvousHeaderBytes
		}
		op.mod = mod
		op.x.Begin(op.w, op.peer, first)
		op.state = sendFirst
		fallthrough
	case sendFirst:
		if !op.mod.Step(&op.x) {
			return false
		}
		if op.x.Err != nil {
			return op.end(op.x.Err)
		}
		op.peer.deliver(op.msg)
		if !op.msg.rndv {
			return op.end(nil)
		}
		op.state = sendCTS
		fallthrough
	case sendCTS:
		// The CTS wait is checkpoint-interruptible: a pending coordination
		// may run while we wait here, tearing down and rebuilding the BTLs
		// (see waitInterruptible).
		for j := r.job; !op.msg.cts; {
			if !j.ckptPending || r.ftGen == j.ckptGen {
				r.wake.Await(op.w)
				return false
			}
			if !op.isProc {
				j.k.GoNow(fmt.Sprintf("rank%d/sendrecv", r.id), op.promoted)
				return false
			}
			r.joinCheckpoint(op.w)
		}
		// Re-select: the transport may have changed across a checkpoint
		// (fallback migration switches openib → tcp mid-rendezvous).
		mod, err := r.btls.Select(op.peer)
		if err != nil {
			return op.end(err)
		}
		op.mod = mod
		op.x.Begin(op.w, op.peer, op.bytes)
		op.state = sendPayload
		fallthrough
	default: // sendPayload
		if !op.mod.Step(&op.x) {
			return false
		}
		if op.x.Err != nil {
			return op.end(op.x.Err)
		}
		op.msg.landed = true
		op.peer.wake.Broadcast()
		return op.end(nil)
	}
}

// end finishes a send that got as far as spinBegin.
func (op *sendOp) end(err error) bool {
	op.r.spinEnd()
	op.err = err
	return true
}

// promoted is the body of the process a Sendrecv's send half becomes
// when it must join a checkpoint: it runs the checkpoint handler and the
// rest of the send where the callback stopped, finishes the Sendrecv's
// send half, and exits.
func (op *sendOp) promoted(p *sim.Proc) {
	op.w, op.isProc = p, true
	for !op.step() {
		p.Park()
	}
	op.r.sr.finish()
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// size. Use AnySource/AnyTag as wildcards.
func (r *Rank) Recv(p *sim.Proc, src, tag int) (float64, error) {
	r.spinBegin()
	defer r.spinEnd()
	msg := r.takeUnexpected(src, tag)
	if msg == nil {
		req := recycled(&r.job.freeReqs)
		*req = recvReq{src: src, tag: tag}
		r.recvQ = append(r.recvQ, req)
		// Checkpoint-interruptible: the posted receive survives a full
		// coordination cycle (it is runtime state in guest memory).
		r.waitInterruptible(p, &req.matched)
		msg = req.msg
		*req = recvReq{}
		r.job.freeReqs = append(r.job.freeReqs, req)
	}
	return r.completeRecv(p, msg)
}

// completeRecv finishes the protocol for a matched message and recycles
// it.
func (r *Rank) completeRecv(p *sim.Proc, msg *message) (float64, error) {
	if msg.rndv {
		msg.cts = true
		msg.sender.wake.Broadcast()
		// Payload landing; interruptible for the same reason as the CTS
		// wait on the send side.
		r.waitInterruptible(p, &msg.landed)
	}
	bytes := msg.bytes
	*msg = message{}
	r.job.freeMsgs = append(r.job.freeMsgs, msg)
	return bytes, nil
}

// deliver runs the receiver-side matching engine. Here and in
// takeUnexpected, slices.Delete clears the vacated last slot, which would
// otherwise alias a recycled request or message.
func (r *Rank) deliver(msg *message) {
	for i, req := range r.recvQ {
		if matches(req.src, req.tag, msg) {
			r.recvQ = slices.Delete(r.recvQ, i, i+1)
			req.msg, req.matched = msg, true
			r.wake.Broadcast()
			return
		}
	}
	r.unexpQ = append(r.unexpQ, msg)
}

// takeUnexpected pops the first queued message matching (src, tag), if
// any.
func (r *Rank) takeUnexpected(src, tag int) *message {
	for i, msg := range r.unexpQ {
		if matches(src, tag, msg) {
			r.unexpQ = slices.Delete(r.unexpQ, i, i+1)
			return msg
		}
	}
	return nil
}

// sendrecv runs the send half of a rank's Sendrecv as callbacks of a
// waiter, so an exchange of large messages between peers cannot deadlock
// and no process runs it. A rank makes one Sendrecv at a time, so one
// machine serves them all.
type sendrecv struct {
	op   sendOp
	w    *sim.Proc // the waiter whose wake-ups advance op
	busy bool      // a send half is under way
	done *sim.Cond // the caller parks here until the send half finishes
}

// Sendrecv performs a simultaneous send and receive (MPI_Sendrecv): the
// rank's send machine runs the send while the caller receives. It
// returns once both halves are done.
func (r *Rank) Sendrecv(p *sim.Proc, dst, sendTag int, bytes float64, src, recvTag int) (float64, error) {
	s := &r.sr
	if s.busy {
		panic(fmt.Sprintf("mpi: rank %d: Sendrecv while another is in flight", r.id))
	}
	if s.w == nil {
		s.w, s.done = r.job.k.Waiter(s.wake), sim.NewCond(r.job.k)
	}
	s.busy = true
	s.op.begin(r, s.w, false, dst, sendTag, bytes)
	s.w.WakeAfter(0)
	got, err := r.Recv(p, src, recvTag)
	for s.busy {
		s.done.Wait(p)
	}
	if err != nil {
		return 0, err
	}
	if s.op.err != nil {
		return 0, s.op.err
	}
	return got, nil
}

// wake is the waiter's callback: it advances the send half.
func (s *sendrecv) wake() {
	if s.op.step() {
		s.finish()
	}
}

// finish ends the send half and wakes the caller if it waits for it.
func (s *sendrecv) finish() {
	s.busy = false
	s.done.Signal()
}

// PendingUnexpected returns the number of buffered unmatched messages
// (used by tests and the CRCP drain assertions).
func (r *Rank) PendingUnexpected() int { return len(r.unexpQ) }

// PendingReceives returns the number of posted unmatched receives.
func (r *Rank) PendingReceives() int { return len(r.recvQ) }
