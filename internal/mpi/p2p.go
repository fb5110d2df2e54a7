package mpi

import (
	"fmt"
	"slices"

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
	if dst < 0 || dst >= len(r.job.ranks) {
		return fmt.Errorf("%w: send to %d", ErrRankRange, dst)
	}
	r.spinBegin()
	defer r.spinEnd()
	peer := r.job.ranks[dst]
	mod, err := r.btls.Select(peer)
	if err != nil {
		return err
	}
	msg := recycled(&r.job.freeMsgs)
	*msg = message{src: r.id, sender: r, tag: tag, bytes: bytes, rndv: bytes > eagerLimit}
	if !msg.rndv {
		if err := mod.Transfer(p, peer, bytes); err != nil {
			return err
		}
		peer.deliver(msg)
		return nil
	}
	// Rendezvous: RTS header, wait for CTS, then the payload.
	if err := mod.Transfer(p, peer, rendezvousHeaderBytes); err != nil {
		return err
	}
	peer.deliver(msg)
	// The CTS wait is checkpoint-interruptible: a pending coordination may
	// run while we are parked here, tearing down and rebuilding the BTLs.
	r.waitInterruptible(p, &msg.cts)
	// Re-select: the transport may have changed across a checkpoint
	// (fallback migration switches openib → tcp mid-rendezvous).
	mod, err = r.btls.Select(peer)
	if err != nil {
		return err
	}
	if err := mod.Transfer(p, peer, bytes); err != nil {
		return err
	}
	msg.landed = true
	peer.wake.Broadcast()
	return nil
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

// sendrecv is a rank's Sendrecv sender: a process, started by the rank's
// first Sendrecv, that runs the send half of every call so an exchange of
// large messages between peers cannot deadlock. A rank makes one
// Sendrecv at a time, so one sender serves them all.
type sendrecv struct {
	dst, tag int
	bytes    float64
	err      error
	busy     bool      // a send is handed over and not yet finished
	start    *sim.Cond // the sender parks here between sends
	finish   *sim.Cond // the caller parks here until the send finishes
}

// Sendrecv performs a simultaneous send and receive (MPI_Sendrecv): the
// rank's sender process runs the send while the caller receives. It
// returns once both halves are done.
func (r *Rank) Sendrecv(p *sim.Proc, dst, sendTag int, bytes float64, src, recvTag int) (float64, error) {
	s := &r.sr
	if s.busy {
		panic(fmt.Sprintf("mpi: rank %d: Sendrecv while another is in flight", r.id))
	}
	s.dst, s.tag, s.bytes, s.busy = dst, sendTag, bytes, true
	if s.start == nil {
		s.start, s.finish = sim.NewCond(r.job.k), sim.NewCond(r.job.k)
		r.job.k.Go(r.sendrecvName, r.sendLoop)
	} else {
		s.start.Signal()
	}
	got, err := r.Recv(p, src, recvTag)
	for s.busy {
		s.finish.Wait(p)
	}
	if err != nil {
		return 0, err
	}
	if s.err != nil {
		return 0, s.err
	}
	return got, nil
}

// sendLoop is the body of the rank's sender process.
func (r *Rank) sendLoop(p *sim.Proc) {
	s := &r.sr
	for {
		for !s.busy {
			s.start.Wait(p)
		}
		s.err = r.Send(p, s.dst, s.tag, s.bytes)
		s.busy = false
		s.finish.Signal()
	}
}

// PendingUnexpected returns the number of buffered unmatched messages
// (used by tests and the CRCP drain assertions).
func (r *Rank) PendingUnexpected() int { return len(r.unexpQ) }

// PendingReceives returns the number of posted unmatched receives.
func (r *Rank) PendingReceives() int { return len(r.recvQ) }
