// Package mpi models an Open MPI-like runtime: ranks hosted in VMs,
// point-to-point messaging over BTL transport modules, collectives, an
// out-of-band (OOB) control channel, and the checkpoint/restart
// coordination (CRCP) that Ninja migration reuses to switch transports
// across a migration without restarting processes.
package mpi

import (
	"errors"
	"fmt"

	"repro/internal/crs"
	"repro/internal/mpi/btl"
	"repro/internal/sim"
	"repro/internal/vmm"
)

// Config describes an MPI job launch.
type Config struct {
	// VMs are the guest machines; rank i runs on VMs[i/RanksPerVM].
	VMs []*vmm.VM
	// RanksPerVM is the number of MPI processes per VM (≥1).
	RanksPerVM int
	// ContinueLikeRestart mirrors ompi_cr_continue_like_restart: forcibly
	// reconstruct BTL modules on the continue path even when only TCP was
	// in use before the checkpoint — required for recovery migration to
	// re-discover InfiniBand (§III-C).
	ContinueLikeRestart bool
}

const (
	// eagerLimit is the eager/rendezvous protocol switchover in bytes
	// (Open MPI openib default ≈12 KB; we use one limit for all BTLs).
	eagerLimit = 64 << 10
	// oobLatency is the out-of-band (TCP management channel) latency.
	oobLatency = 100 * sim.Microsecond
	// reduceBandwidth is reduction-operator compute throughput (bytes per
	// core-second).
	reduceBandwidth = 2e9
)

// Errors returned by the runtime.
var (
	ErrRankRange      = errors.New("mpi: rank out of range")
	ErrCkptInProgress = errors.New("mpi: checkpoint already in progress")
)

// Job is a running MPI application: a set of ranks with their transports.
type Job struct {
	k     *sim.Kernel
	cfg   Config
	ranks []*Rank

	bar barrierState

	ckptPending bool
	ckptGen     int
	ckptDone    *sim.Future[struct{}]
	ckptJoined  int
	ckptStats   []CkptPhaseTimes
	// transparentCkpt marks the in-flight checkpoint as
	// interconnect-transparent (RDMA-native migration): the BTLs keep
	// their queue pairs — the transport migrates them underneath the
	// runtime — so the pre-checkpoint release and post-continue
	// reconstruction are skipped. The orchestrator clears the flag
	// mid-checkpoint when the QP replay demotes to the hotplug rung, in
	// which case the continue path reconstructs as usual.
	transparentCkpt bool

	// world is MPI_COMM_WORLD, built once at launch; the world
	// collectives on Rank run over it.
	world      *Comm
	nextCommID int

	// freeMsgs and freeReqs recycle the messages and posted receives of
	// completed receives, freeOps the machines of completed Sends.
	freeMsgs []*message
	freeReqs []*recvReq
	freeOps  []*sendOp
}

// NewJob launches an MPI job across the given VMs. Each rank gets its own
// BTL module set (sm, openib, tcp) and a no-op CRS until one is installed.
func NewJob(k *sim.Kernel, cfg Config) (*Job, error) {
	if len(cfg.VMs) == 0 || cfg.RanksPerVM < 1 {
		return nil, fmt.Errorf("mpi: bad job shape: %d VMs × %d ranks", len(cfg.VMs), cfg.RanksPerVM)
	}
	j := &Job{k: k, cfg: cfg}
	j.bar.cond = sim.NewCond(k)
	n := len(cfg.VMs) * cfg.RanksPerVM
	for i := 0; i < n; i++ {
		r := &Rank{
			job:  j,
			id:   i,
			vm:   cfg.VMs[i/cfg.RanksPerVM],
			crs:  crs.Noop{},
			wake: sim.NewCond(k),
		}
		r.btls = btl.NewSet(r, btl.NewSM(r), btl.NewOpenIB(r), btl.NewTCP(r))
		j.ranks = append(j.ranks, r)
	}
	j.world = j.NewComm(nil)
	return j, nil
}

// Kernel returns the simulation kernel.
func (j *Job) Kernel() *sim.Kernel { return j.k }

// Size returns the number of ranks.
func (j *Job) Size() int { return len(j.ranks) }

// Rank returns rank i.
func (j *Job) Rank(i int) *Rank { return j.ranks[i] }

// Ranks returns all ranks in order.
func (j *Job) Ranks() []*Rank { return j.ranks }

// VMs returns the job's virtual machines in launch order.
func (j *Job) VMs() []*vmm.VM { return j.cfg.VMs }

// RanksPerVM returns the number of ranks per VM.
func (j *Job) RanksPerVM() int { return j.cfg.RanksPerVM }

// SetContinueLikeRestart toggles the ompi_cr_continue_like_restart knob at
// runtime (the paper sets it before a recovery migration).
func (j *Job) SetContinueLikeRestart(v bool) { j.cfg.ContinueLikeRestart = v }

// SetTransparentCkpt marks the next (or in-flight) checkpoint as
// interconnect-transparent: BTL modules are neither released nor
// reconstructed because the queue pairs themselves migrate with the VM
// (the RDMA-native mode). Clearing it mid-checkpoint demotes the continue
// path back to a full BTL reconstruction.
func (j *Job) SetTransparentCkpt(v bool) { j.transparentCkpt = v }

// TransparentCkpt reports whether the transparent-checkpoint flag is set.
func (j *Job) TransparentCkpt() bool { return j.transparentCkpt }

// Launch starts fn as one simulated process per rank and returns a future
// resolving when every rank's function has returned.
func (j *Job) Launch(name string, fn func(p *sim.Proc, r *Rank)) *sim.Future[struct{}] {
	wg := sim.NewWaitGroup(j.k)
	wg.Add(len(j.ranks))
	done := sim.NewFuture[struct{}](j.k)
	for _, r := range j.ranks {
		r := r
		j.k.Go(fmt.Sprintf("%s/rank%d", name, r.id), func(p *sim.Proc) {
			fn(p, r)
			wg.Done()
		})
	}
	j.k.Go(name+"/join", func(p *sim.Proc) {
		wg.Wait(p)
		done.Set(struct{}{})
	})
	return done
}

// barrierState is a reusable generation-counting barrier over the OOB
// channel.
type barrierState struct {
	count int
	gen   int
	cond  *sim.Cond
}

// Barrier blocks until every rank has entered it (OOB dissemination; cost
// is one OOB latency per participant — the coordination overhead the
// paper measures as negligible).
func (j *Job) Barrier(p *sim.Proc) {
	p.Sleep(oobLatency)
	gen := j.bar.gen
	j.bar.count++
	if j.bar.count == len(j.ranks) {
		j.bar.count = 0
		j.bar.gen++
		j.bar.cond.Broadcast()
		return
	}
	for j.bar.gen == gen {
		j.bar.cond.Wait(p)
	}
}
