package mpi

import (
	"fmt"

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
// message sitting in a rank's matching engine.
type message struct {
	src    int
	sender *Rank
	tag    int
	bytes  float64
	// rndv is non-nil for a rendezvous announcement: the receiver resolves
	// it with its clear-to-send, and the sender resolves done when the
	// payload lands.
	rndv *sim.Future[*rendezvous]
}

// rendezvous is the receiver's clear-to-send handshake state.
type rendezvous struct {
	receiver *Rank
	done     *sim.Future[struct{}]
}

// recvReq is a posted receive awaiting a match.
type recvReq struct {
	src, tag int
	got      *sim.Future[*message]
}

func (q *recvReq) matches(m *message) bool {
	return (q.src == AnySource || q.src == m.src) && (q.tag == AnyTag || q.tag == m.tag)
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
	if bytes <= eagerLimit {
		if err := mod.Transfer(p, peer, bytes); err != nil {
			return err
		}
		peer.deliver(&message{src: r.id, sender: r, tag: tag, bytes: bytes})
		return nil
	}
	// Rendezvous: RTS header, wait for CTS, then the payload.
	msg := &message{src: r.id, sender: r, tag: tag, bytes: bytes,
		rndv: sim.NewFuture[*rendezvous](r.job.k)}
	if err := mod.Transfer(p, peer, rendezvousHeaderBytes); err != nil {
		return err
	}
	peer.deliver(msg)
	// The CTS wait is checkpoint-interruptible: a pending coordination may
	// run while we are parked here, tearing down and rebuilding the BTLs.
	r.waitInterruptible(p, msg.rndv.Done)
	rv := msg.rndv.Value()
	// Re-select: the transport may have changed across a checkpoint
	// (fallback migration switches openib → tcp mid-rendezvous).
	mod, err = r.btls.Select(peer)
	if err != nil {
		return err
	}
	if err := mod.Transfer(p, peer, bytes); err != nil {
		return err
	}
	rv.done.Set(struct{}{})
	rv.receiver.wake.Broadcast()
	return nil
}

// Recv blocks until a message matching (src, tag) arrives and returns its
// size. Use AnySource/AnyTag as wildcards.
func (r *Rank) Recv(p *sim.Proc, src, tag int) (float64, error) {
	r.spinBegin()
	defer r.spinEnd()
	req := &recvReq{src: src, tag: tag, got: sim.NewFuture[*message](r.job.k)}
	if msg := r.takeUnexpected(req); msg != nil {
		return r.completeRecv(p, msg)
	}
	r.recvQ = append(r.recvQ, req)
	// Checkpoint-interruptible: the posted receive survives a full
	// coordination cycle (it is runtime state in guest memory).
	r.waitInterruptible(p, req.got.Done)
	return r.completeRecv(p, req.got.Value())
}

// completeRecv finishes the protocol for a matched message.
func (r *Rank) completeRecv(p *sim.Proc, msg *message) (float64, error) {
	if msg.rndv != nil {
		rv := &rendezvous{receiver: r, done: sim.NewFuture[struct{}](r.job.k)}
		msg.rndv.Set(rv) // clear-to-send
		msg.sender.wake.Broadcast()
		// Payload landing; interruptible for the same reason as the CTS
		// wait on the send side.
		r.waitInterruptible(p, rv.done.Done)
	}
	return msg.bytes, nil
}

// deliver runs the receiver-side matching engine.
func (r *Rank) deliver(msg *message) {
	for i, req := range r.recvQ {
		if req.matches(msg) {
			r.recvQ = append(r.recvQ[:i], r.recvQ[i+1:]...)
			req.got.Set(msg)
			r.wake.Broadcast()
			return
		}
	}
	r.unexpQ = append(r.unexpQ, msg)
}

// takeUnexpected pops the first queued message matching req, if any.
func (r *Rank) takeUnexpected(req *recvReq) *message {
	for i, msg := range r.unexpQ {
		if req.matches(msg) {
			r.unexpQ = append(r.unexpQ[:i], r.unexpQ[i+1:]...)
			return msg
		}
	}
	return nil
}

// Sendrecv performs a simultaneous send and receive (MPI_Sendrecv): the
// send runs in a helper process so large-message exchanges between peers
// cannot deadlock.
func (r *Rank) Sendrecv(p *sim.Proc, dst, sendTag int, bytes float64, src, recvTag int) (float64, error) {
	sendErr := sim.NewFuture[error](r.job.k)
	r.job.k.Go(r.sendrecvName, func(sp *sim.Proc) {
		sendErr.Set(r.Send(sp, dst, sendTag, bytes))
	})
	got, err := r.Recv(p, src, recvTag)
	if err != nil {
		return 0, err
	}
	if err := sendErr.Wait(p); err != nil {
		return 0, err
	}
	return got, nil
}

// PendingUnexpected returns the number of buffered unmatched messages
// (used by tests and the CRCP drain assertions).
func (r *Rank) PendingUnexpected() int { return len(r.unexpQ) }

// PendingReceives returns the number of posted unmatched receives.
func (r *Rank) PendingReceives() int { return len(r.recvQ) }
