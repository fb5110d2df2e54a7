package mpi

import (
	"repro/internal/crs"
	"repro/internal/mpi/btl"
	"repro/internal/sim"
	"repro/internal/vmm"
)

// Rank is one MPI process: a guest process inside a VM with its own BTL
// module set and CRS hooks. Rank implements btl.Endpoint.
type Rank struct {
	job *Job
	id  int
	vm  *vmm.VM

	btls *btl.Set
	crs  crs.Service

	recvQ  []*recvReq
	unexpQ []*message

	// hadOpenIB records whether the openib BTL was usable when the last
	// pre-checkpoint release ran; the continue path reconstructs BTLs
	// only in that case unless ContinueLikeRestart forces it.
	hadOpenIB bool

	// wake is broadcast whenever something a blocked call might be
	// waiting for changes: a message delivery, a rendezvous handshake, or
	// a checkpoint request. Blocking calls loop on it so the CRCP
	// coordination can interrupt them (Open MPI quiesces from inside the
	// progress engine, not only at application probe points).
	wake *sim.Cond
	// ftGen is the checkpoint generation this rank last participated in.
	ftGen int

	// spinDepth/spinPS model Open MPI's busy-polling progress engine:
	// while a rank is inside a blocking communication call its vCPU spins
	// at full speed, consuming a processor share without doing work. This
	// is what makes the CPU-over-committed "2 hosts (TCP)" configuration
	// of Fig. 8b so slow.
	spinDepth int
	spinPS    *sim.PS

	// chain is the rank's ComputeLoop chain, surfaced by RequestCheckpoint.
	chain sim.Chain

	// sr runs the send half of the rank's Sendrecv.
	sr sendrecv
}

// spinBegin marks the rank as busy-polling inside a blocking MPI call.
func (r *Rank) spinBegin() {
	r.spinDepth++
	if r.spinDepth == 1 {
		r.spinPS = r.vm.HostCPU()
		r.spinPS.AddBackground(1)
	}
}

// spinEnd clears the busy-poll load registered by spinBegin.
func (r *Rank) spinEnd() {
	r.spinDepth--
	if r.spinDepth == 0 {
		r.spinPS.AddBackground(-1)
		r.spinPS = nil
	}
}

// spinPause temporarily releases the busy-poll load (the vCPU halts in
// SymVirt wait during a checkpoint) and reports whether it was held.
func (r *Rank) spinPause() bool {
	if r.spinDepth > 0 && r.spinPS != nil {
		r.spinPS.AddBackground(-1)
		r.spinPS = nil
		return true
	}
	return false
}

// spinResume re-acquires the busy-poll load on the (possibly new) host.
func (r *Rank) spinResume() {
	if r.spinDepth > 0 && r.spinPS == nil {
		r.spinPS = r.vm.HostCPU()
		r.spinPS.AddBackground(1)
	}
}

// waitInterruptible blocks until *ready holds, participating in a pending
// checkpoint if one arrives meanwhile — the CRCP interruption that keeps a
// rank blocked in Recv (waiting for a peer that has already quiesced) from
// deadlocking the coordination.
func (r *Rank) waitInterruptible(p *sim.Proc, ready *bool) {
	for !*ready {
		j := r.job
		if j.ckptPending && r.ftGen != j.ckptGen {
			r.joinCheckpoint(p)
			continue
		}
		r.wake.Wait(p)
	}
}

// joinCheckpoint runs the pending checkpoint on p from inside a blocked
// call, releasing the call's busy-poll load meanwhile.
func (r *Rank) joinCheckpoint(p *sim.Proc) {
	r.ftGen = r.job.ckptGen
	held := r.spinPause()
	r.ftHandler(p)
	if held {
		r.spinResume()
	}
}

// RankID implements btl.Endpoint.
func (r *Rank) RankID() int { return r.id }

// VM implements btl.Endpoint.
func (r *Rank) VM() *vmm.VM { return r.vm }

// Job returns the owning job.
func (r *Rank) Job() *Job { return r.job }

// BTLs returns the rank's transport module set.
func (r *Rank) BTLs() *btl.Set { return r.btls }

// SetCRS installs the rank's checkpoint/restart service (the SymVirt
// coordinator installs SELF callbacks here — the LD_PRELOAD of the paper).
func (r *Rank) SetCRS(s crs.Service) { r.crs = s }

// Compute burns coreSeconds of application CPU on the rank's current host,
// under contention and the VM run gate.
func (r *Rank) Compute(p *sim.Proc, coreSeconds float64) {
	r.vm.Compute(p, coreSeconds)
}

// ComputeLoop runs `for i := 0; i < n; i++ { FTProbe; Compute(q) }`, the
// iterating application of Ninja's experiments. Between probes that find
// nothing pending the iterations run as one VM compute chain, so they cost
// no kernel event; RequestCheckpoint and a VM stop surface the chain at
// the end of the current iteration, where the loop would next probe. An
// iteration that starts with a checkpoint pending runs eagerly.
func (r *Rank) ComputeLoop(p *sim.Proc, n int, q float64) {
	for n > 0 {
		r.FTProbe(p)
		if r.job.ckptPending {
			r.Compute(p, q)
			n--
			continue
		}
		n -= r.vm.ComputeChain(p, &r.chain, n, q)
	}
}

// TransportTo reports the module name the rank would use to reach peer —
// the observable the paper's experiments care about ("openib" during
// normal operation, "tcp" during fallback operation).
func (r *Rank) TransportTo(peer int) (string, error) {
	m, err := r.btls.Select(r.job.ranks[peer])
	if err != nil {
		return "", err
	}
	return m.Name(), nil
}
