package mpi

import (
	"repro/internal/sim"
)

// CkptPhaseTimes records one rank's ft_event phase durations, feeding the
// paper's overhead breakdowns (coordination is measured as negligible).
type CkptPhaseTimes struct {
	Rank          int
	Coordination  sim.Time // CRCP quiesce (bookmark exchange + drain)
	Checkpoint    sim.Time // CRS checkpoint hook (SymVirt wait #1 span)
	Continue      sim.Time // CRS continue hook (SymVirt wait #2 span)
	Reconstruct   sim.Time // BTL reconstruction + reconnect
	Reconstructed bool
}

// RequestCheckpoint asks every rank to run the checkpoint/restart protocol
// at its next FTProbe (the paper's ompi-checkpoint, triggered by the cloud
// scheduler). The returned future resolves when all ranks have completed
// the full ft_event sequence, including BTL reconstruction.
func (j *Job) RequestCheckpoint() (*sim.Future[struct{}], error) {
	if j.ckptPending {
		return nil, ErrCkptInProgress
	}
	j.ckptPending = true
	j.ckptGen++
	j.ckptJoined = 0
	j.ckptStats = nil
	j.ckptDone = sim.NewFuture[struct{}](j.k)
	// Interrupt blocked communication calls so every rank can join the
	// coordination even mid-collective, and compute chains so each rank
	// probes at the end of its current iteration.
	for _, r := range j.ranks {
		r.wake.Broadcast()
		r.chain.Surface()
	}
	return j.ckptDone, nil
}

// CheckpointPending reports whether a checkpoint request is outstanding.
func (j *Job) CheckpointPending() bool { return j.ckptPending }

// CheckpointPhaseTimes returns the per-rank phase breakdown of the last
// completed checkpoint.
func (j *Job) CheckpointPhaseTimes() []CkptPhaseTimes { return j.ckptStats }

// FTProbe participates in a pending checkpoint, if any. Applications call
// it at iteration boundaries (the runtime's progress engine would
// interject the same sequence); it returns immediately when nothing is
// pending. The sequence mirrors Open MPI's ft_event (§III-C):
//
//  1. CRCP coordination: bookmark exchange and channel drain, leaving a
//     globally consistent communication state;
//  2. pre-checkpoint: every BTL releases its interconnect resources, so
//     the IB HCA has no live QPs and can be hot-detached;
//  3. CRS checkpoint hook — SymVirt wait: the VMM detaches devices;
//  4. CRS continue hook — SymVirt wait again: migration and re-attach
//     happen here; the hook returns after link-up confirmation;
//  5. BTL reconstruction — re-run module selection against the *current*
//     device set and re-establish connections. Skipped when only TCP was
//     in use before the checkpoint, unless ContinueLikeRestart is set
//     (the recovery-migration knob).
func (r *Rank) FTProbe(p *sim.Proc) {
	j := r.job
	if !j.ckptPending {
		return
	}
	if r.ftGen == j.ckptGen {
		// Already participated in this checkpoint (possibly from within a
		// blocked call); hold the application thread until the
		// coordination completes everywhere.
		if !j.ckptDone.Done() {
			j.ckptDone.Wait(p)
		}
		return
	}
	r.ftGen = j.ckptGen
	r.ftHandler(p)
}

// ftHandler runs the full ft_event sequence for this rank.
func (r *Rank) ftHandler(p *sim.Proc) {
	j := r.job
	stats := CkptPhaseTimes{Rank: r.id}
	mark := p.Now()
	lap := func(dst *sim.Time) {
		*dst = p.Now() - mark
		mark = p.Now()
	}

	// 1. CRCP quiesce. Blocking p2p semantics guarantee no payload is in
	// flight once every rank reaches the barrier; buffered unexpected
	// messages live in guest memory and survive the migration.
	j.Barrier(p)
	lap(&stats.Coordination)

	// 2. Pre-checkpoint: release interconnect resources. A transparent
	// (RDMA-native) checkpoint skips the release — the queue pairs migrate
	// with the VM inside the transport, so tearing them down here would
	// defeat the whole mode.
	transparent := j.transparentCkpt
	r.hadOpenIB = false
	for _, m := range r.btls.Modules() {
		if m.Name() == "openib" && m.Usable() {
			r.hadOpenIB = true
		}
	}
	if !transparent {
		r.btls.ReleaseAll()
	}

	// 3. Checkpoint hook (SymVirt wait: detach phase).
	r.vm.Guest().SetAppFrozen(true)
	r.crs.Checkpoint(p)
	lap(&stats.Checkpoint)

	// 4. Continue hook (SymVirt wait: migrate + re-attach + link-up).
	r.crs.Continue(p)
	r.vm.Guest().SetAppFrozen(false)
	lap(&stats.Continue)

	// 5. BTL reconstruction. Re-read the transparent flag: the
	// orchestrator clears it mid-checkpoint when the QP replay failed and
	// the run demoted to the hotplug rung — then the cached queue pairs
	// are stale and a full reconstruction is mandatory.
	switch {
	case transparent && j.transparentCkpt:
		// RDMA-native: the queue pairs moved with the VM; nothing was
		// released and nothing needs rebuilding.
	case transparent || r.hadOpenIB || j.cfg.ContinueLikeRestart:
		r.btls.Reconstruct()
		stats.Reconstructed = true
	default:
		// Continue-without-restart: sockets survived; just resume the
		// released modules with their previous selection intact.
		for _, m := range r.btls.Modules() {
			m.Reinit()
		}
	}
	// Everyone finishes reconstruction before traffic resumes.
	j.Barrier(p)
	lap(&stats.Reconstruct)

	j.ckptStats = append(j.ckptStats, stats)
	j.ckptJoined++
	if j.ckptJoined == len(j.ranks) {
		j.ckptPending = false
		j.ckptDone.Set(struct{}{})
	}
}
