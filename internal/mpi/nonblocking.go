package mpi

import (
	"fmt"

	"repro/internal/sim"
)

// Request is a handle to a non-blocking operation, completed by Wait.
type Request struct {
	rank  *Rank
	isend bool
	// send side
	sendDone *sim.Future[error]
	// recv side
	req       *recvReq
	completed bool
	bytes     float64
	err       error
}

// Isend starts a non-blocking send. The transfer progresses independently
// (Open MPI's progress engine, modelled as a helper process); Wait blocks
// until the payload is delivered (or buffered, for eager messages).
func (r *Rank) Isend(dst, tag int, bytes float64) *Request {
	req := &Request{rank: r, isend: true, bytes: bytes,
		sendDone: sim.NewFuture[error](r.job.k)}
	r.job.k.Go(r.isendName, func(sp *sim.Proc) {
		req.sendDone.Set(r.Send(sp, dst, tag, bytes))
	})
	return req
}

// Irecv posts a non-blocking receive. Matching happens immediately (an
// already-buffered unexpected message is claimed now); the payload
// completes in Wait.
func (r *Rank) Irecv(src, tag int) *Request {
	req := &Request{rank: r,
		req: &recvReq{src: src, tag: tag, got: sim.NewFuture[*message](r.job.k)}}
	if msg := r.takeUnexpected(req.req); msg != nil {
		req.req.got.Set(msg)
	} else {
		r.recvQ = append(r.recvQ, req.req)
	}
	return req
}

// Wait blocks until the request completes. For receives it returns the
// message size. Waiting twice on the same request is an error in MPI; here
// it returns the cached result.
func (r *Rank) Wait(p *sim.Proc, req *Request) (float64, error) {
	if req.rank != r {
		return 0, fmt.Errorf("mpi: Wait on another rank's request")
	}
	if req.completed {
		return req.bytes, req.err
	}
	r.spinBegin()
	defer r.spinEnd()
	if req.isend {
		// The helper process running the send participates in any pending
		// checkpoint from its own interruptible waits.
		req.err = req.sendDone.Wait(p)
	} else {
		r.waitInterruptible(p, req.req.got.Done)
		req.bytes, req.err = r.completeRecv(p, req.req.got.Value())
	}
	req.completed = true
	return req.bytes, req.err
}

// Waitall completes every request, returning the first error.
func (r *Rank) Waitall(p *sim.Proc, reqs ...*Request) error {
	var firstErr error
	for _, req := range reqs {
		if _, err := r.Wait(p, req); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Test reports whether the request has completed without blocking (it does
// not run the completion protocol; rendezvous receives still need Wait).
func (req *Request) Test() bool {
	if req.completed {
		return true
	}
	if req.isend {
		return req.sendDone.Done()
	}
	return req.req.got.Done()
}
