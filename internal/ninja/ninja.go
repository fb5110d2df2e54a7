// Package ninja implements the paper's primary contribution: an
// interconnect-transparent migration that simultaneously moves multiple
// co-located VMs between data centers with different interconnects, by
// cooperation between the VMM (via SymVirt) and the Open MPI runtime on
// the guest (via the CRCP/CRS checkpoint framework). MPI processes keep
// running across the move; only the transport underneath them changes.
package ninja

import (
	"errors"
	"fmt"

	"repro/internal/crs"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/symvirt"
	"repro/internal/vmm"
)

// DeviceTag is the passthrough-device tag Ninja scripts operate on
// (the 'vf0' of Fig. 5).
const DeviceTag = "vf0"

// DefaultHostPCIID is the host PCI address of the HCA on the paper's
// nodes, which device_add passes through.
const DefaultHostPCIID = "04:00.0"

// Outcome summarizes how a Ninja migration concluded.
type Outcome string

const (
	// OutcomeClean: no fault touched the run.
	OutcomeClean Outcome = "clean"
	// OutcomeRetriedOK: at least one phase or VM operation failed and a
	// retry (possibly against a spare node) completed the move.
	OutcomeRetriedOK Outcome = "retried-ok"
	// OutcomeDegradedTCP: the move completed but one or more VMs gave up
	// on InfiniBand and continue over the tcp BTL.
	OutcomeDegradedTCP Outcome = "degraded-to-tcp"
	// OutcomeRolledBack: the script aborted and the job resumed on its
	// original placement.
	OutcomeRolledBack Outcome = "rolled-back-in-place"
)

// RungMode names the degradation-ladder rung a run terminated on. The
// ladder is rdma-native → hotplug → TCP → rollback-in-place: a clean
// RDMA-native run replays QP state with no hotplug and no link training; a
// failed replay or preflight falls back to the classic hotplug script;
// failed re-attach/link-up degrades to the tcp BTL; an unrecoverable
// script failure rolls the job back where it was.
type RungMode string

const (
	// ModeRDMANative: QP checkpoint/replay carried the transport across;
	// no detach, no hotplug, no link training.
	ModeRDMANative RungMode = "rdma-native"
	// ModeHotplug: the classic detach → migrate → attach → link-up script
	// (or an RDMA-native run whose replay demoted to it).
	ModeHotplug RungMode = "hotplug"
	// ModeTCP: the job ended the run on the tcp BTL (degraded, attach
	// skipped, or an Ethernet destination).
	ModeTCP RungMode = "tcp"
	// ModeRollback: the run aborted and the job resumed in place.
	ModeRollback RungMode = "rollback"
)

// Report is one Ninja migration's overhead breakdown — the categories of
// Figs. 4, 6 and 7: coordination, hotplug (detach + attach + confirm),
// migration, and link-up — plus the robustness outcome of the run.
type Report struct {
	// Coordination is the CRCP quiesce span: from the trigger until every
	// VM's processes are parked in SymVirt wait.
	Coordination sim.Time
	// Detach is the device_del fan-out span.
	Detach sim.Time
	// Migration is the parallel live-migration span.
	Migration sim.Time
	// Attach is the device_add fan-out span.
	Attach sim.Time
	// Linkup is the span from the final signal until the MPI job resumed
	// (dominated by InfiniBand port training when the destination has an
	// HCA; ≈0 on Ethernet destinations).
	Linkup sim.Time
	// Total is trigger-to-resume.
	Total sim.Time
	// VMStats are the per-VM live-migration statistics (live and
	// RDMA-native modes; nil for cold runs).
	VMStats []vmm.MigrationStats
	// ColdStats are the per-VM save/restore statistics (cold mode; nil
	// otherwise). A VM whose transfer failed keeps zero stats.
	ColdStats []vmm.ColdStats

	// Outcome classifies the run (clean / retried-ok / degraded-to-tcp /
	// rolled-back-in-place).
	Outcome Outcome
	// Mode is the degradation-ladder rung the run terminated on
	// (rdma-native / hotplug / tcp / rollback).
	Mode RungMode
	// RDMADemoted counts VMs whose QP replay failed and fell back to the
	// hotplug rung (RDMA-native runs only).
	RDMADemoted int
	// Retries counts successful re-attempts (phases and per-VM ops).
	Retries int
	// SparesUsed counts destinations replaced from the spare pool.
	SparesUsed int
	// DegradedToTCP counts VMs that abandoned InfiniBand this run.
	DegradedToTCP int
	// Events is the orchestration event trail for this run (faults seen,
	// timeouts, retries, degradations, rollback).
	Events []metrics.Event
}

// Hotplug is the paper's "hotplug" category: detach + re-attach + confirm.
func (r Report) Hotplug() sim.Time { return r.Detach + r.Attach }

// Options tune an orchestrator.
type Options struct {
	// Retry bounds phases in simulated time and enables retries and
	// graceful degradation. nil means the zero RetryPolicy: the original
	// fail-fast script, where any phase error rolls the job back in place.
	Retry *RetryPolicy
	// Spares supplies replacement destinations when a planned destination
	// node fails mid-migration (typically scheduler.NewSpares).
	Spares SparePool
}

// Orchestrator wires an MPI job to SymVirt coordinators and a controller,
// and runs Ninja migration scripts against them.
type Orchestrator struct {
	k    *sim.Kernel
	job  *mpi.Job
	ctl  *symvirt.Controller
	tgts []symvirt.Target
	opts Options

	events *metrics.EventLog
	// Per-run counters, reset at the top of run().
	retries    int
	sparesUsed int
	degraded   int
}

// ErrShape reports a mismatch between destinations and VMs.
var ErrShape = errors.New("ninja: destination list does not match VM list")

// New builds an orchestrator over the job: one SymVirt coordinator per VM
// (expecting ranksPerVM participants) and SELF CRS callbacks on every rank
// that funnel into the coordinator — the libsymvirt.so LD_PRELOAD of the
// paper, installed without modifying the MPI library or the application.
func New(job *mpi.Job, opts Options) *Orchestrator {
	k := job.Kernel()
	if opts.Retry == nil {
		opts.Retry = &RetryPolicy{}
	}
	o := &Orchestrator{k: k, job: job, opts: opts, events: metrics.NewEventLog(k.Now)}

	coordByVM := make(map[*vmm.VM]*symvirt.Coordinator)
	for _, vm := range job.VMs() {
		c := symvirt.NewCoordinator(vm, job.RanksPerVM())
		coordByVM[vm] = c
		o.tgts = append(o.tgts, symvirt.Target{VM: vm, Coord: c})
	}
	for _, r := range job.Ranks() {
		r := r
		coord := coordByVM[r.VM()]
		r.SetCRS(crs.NewSELF(crs.Callbacks{
			// Wait #1: the detach window.
			Checkpoint: func(p *sim.Proc) { coord.Hold(p) },
			// Wait #2..n: migration and re-attach windows, then confirm
			// link-up before the runtime reconstructs BTLs.
			Continue: func(p *sim.Proc) {
				coord.Hold(p)
				g := r.VM().Guest()
				if _, ok := g.IBDevice(); ok {
					if err := g.WaitIBLinkupTimeout(p, o.opts.Retry.LinkupTimeout); err != nil {
						// Recoverable: a port stuck in POLLING (or never
						// powered) must not wedge the rank. Drop the IB
						// binding so BTL reconstruction selects tcp and
						// surface the degradation on the report.
						o.noteLinkupFailure(r.VM(), err)
					}
				}
			},
		}))
	}
	o.ctl = symvirt.NewController(k, o.tgts, job.VMs()[0].Params().ConfirmTime)
	return o
}

// Job returns the orchestrated MPI job.
func (o *Orchestrator) Job() *mpi.Job { return o.job }

// Events returns the orchestrator's full event log (across runs).
func (o *Orchestrator) Events() *metrics.EventLog { return o.events }

// noteLinkupFailure implements the bottom rung of the degradation ladder
// from inside a guest rank: IB never came up, so the VM continues over
// Ethernet. (Rolling back is impossible from here — the controller has
// already released the guests — and unnecessary: the tcp BTL works.)
func (o *Orchestrator) noteLinkupFailure(vm *vmm.VM, err error) {
	o.events.Record(metrics.EventPhaseError, "linkup", vm.Name(), err.Error())
	vm.Guest().AbandonIB()
	o.degraded++
	o.events.Record(metrics.EventDegraded, "linkup", vm.Name(), "continuing over the tcp BTL")
}

// Migrate runs the full Ninja migration script against destination nodes
// (one per VM, in job VM order):
//
//	ckpt request → wait_all → device_detach → signal
//	            → wait_all → migration     → signal/hold
//	            → [wait_all → device_attach] → signal
//	            → link-up confirm → BTL reconstruction → resume
//
// dsts[i] == current node performs a self-migration for VM i. The detach
// and attach phases self-skip on VMs/nodes without HCAs, so the same
// script implements fallback (IB→Eth), recovery (Eth→IB), and homogeneous
// (IB→IB, Eth→Eth) moves — interconnect transparency.
func (o *Orchestrator) Migrate(p *sim.Proc, dsts []*hw.Node) (Report, error) {
	return o.MigratePolicy(p, dsts, AttachAuto)
}

// AttachPolicy controls the re-attach phase of a Ninja migration.
type AttachPolicy int

const (
	// AttachAuto re-attaches on destinations that have an HCA.
	AttachAuto AttachPolicy = iota
	// AttachNever skips the re-attach phase: the VM runs on TCP even if
	// the destination has InfiniBand. Table II's "→ Ethernet" settings
	// use this on the HCA-equipped testbed.
	AttachNever
)

// Mode selects how VM state crosses to the destination.
type Mode int

const (
	// Live uses precopy live migration over the management network.
	Live Mode = iota
	// Cold suspends each VM to a qcow2 snapshot on the shared store and
	// restores it on the destination — the paper's proactive
	// fault-tolerance path (checkpointed images, §II-A). Trades wire
	// bandwidth for (shared) storage bandwidth and works even when the
	// source is about to disappear.
	Cold
	// RDMANative keeps the passthrough HCA attached across the move and
	// replays its QP state on the destination (MigrOS-style QP
	// checkpoint/replay): no DEVICE_DELETED, no hotplug, no ≈30 s link
	// training — a short bounded resync instead. Requires an HCA on both
	// ends; anything else demotes to the hotplug rung before the script
	// commits.
	RDMANative
)

// ColdMigrate runs the Ninja script with checkpoint/restart transfer
// instead of live migration.
func (o *Orchestrator) ColdMigrate(p *sim.Proc, dsts []*hw.Node) (Report, error) {
	return o.run(p, dsts, AttachAuto, Cold)
}

// RDMAMigrate runs the Ninja script in RDMA-native mode: the passthrough
// device stays attached, QP state is checkpointed at the stop-point and
// replayed on the destination HCA. Preflight failures (no attached device,
// destination without an HCA) and per-VM replay failures demote to the
// hotplug rung rather than failing; the terminal rung is in Report.Mode.
func (o *Orchestrator) RDMAMigrate(p *sim.Proc, dsts []*hw.Node) (Report, error) {
	return o.run(p, dsts, AttachAuto, RDMANative)
}

// MigratePolicy is Migrate with an explicit re-attach policy.
func (o *Orchestrator) MigratePolicy(p *sim.Proc, dsts []*hw.Node, policy AttachPolicy) (Report, error) {
	return o.run(p, dsts, policy, Live)
}

// stage identifies where in the script a failure surfaced — the abort
// path must release the guests differently depending on which SymVirt
// wait they are parked in.
type stage int

const (
	stageDetach  stage = iota // guests in the checkpoint wait (#1)
	stageMigrate              // guests in the continue wait (#2)
	stageAttach               // guests in the continue wait (#3, after hold)
)

func (o *Orchestrator) run(p *sim.Proc, dsts []*hw.Node, policy AttachPolicy, mode Mode) (Report, error) {
	var rep Report
	if len(dsts) != len(o.tgts) {
		return rep, fmt.Errorf("%w: %d destinations, %d VMs", ErrShape, len(dsts), len(o.tgts))
	}
	// Spare substitution rewrites destinations; work on a private copy so
	// the caller's plan stays intact.
	dsts = append([]*hw.Node(nil), dsts...)
	pol := o.opts.Retry
	o.retries, o.sparesUsed, o.degraded = 0, 0, 0
	evMark := o.events.Len()
	start := p.Now()

	// Rung selection: RDMA-native runs only commit to the top rung when
	// every VM has its passthrough device and every destination has an
	// HCA; otherwise the run demotes to the classic hotplug script before
	// the checkpoint is even requested.
	rdmaRequested := mode == RDMANative
	rdmaPreflightDemoted := false
	rdmaDemotions := 0
	if mode == RDMANative {
		if reason := o.rdmaPreflightFailure(dsts); reason != "" {
			o.events.Record(metrics.EventRDMADemoted, "preflight", "", reason)
			mode = Live
			rdmaPreflightDemoted = true
		} else {
			// The flag must be up before any rank enters its ft_event
			// sequence, or the BTLs release the very queue pairs the
			// replay is about to ship.
			o.job.SetTransparentCkpt(true)
			defer o.job.SetTransparentCkpt(false)
		}
	}

	finish := func(out Outcome) {
		rep.Retries, rep.SparesUsed, rep.DegradedToTCP = o.retries, o.sparesUsed, o.degraded
		rep.RDMADemoted = rdmaDemotions
		rep.Events = append([]metrics.Event(nil), o.events.Since(evMark)...)
		rep.Outcome = out
		rep.Mode = o.terminalRung(out, policy, rdmaRequested, rdmaPreflightDemoted, rdmaDemotions)
		rep.Total = p.Now() - start
	}
	classify := func() Outcome {
		switch {
		case o.degraded > 0:
			return OutcomeDegradedTCP
		case o.retries > 0 || o.sparesUsed > 0:
			return OutcomeRetriedOK
		default:
			return OutcomeClean
		}
	}

	// Trigger: the cloud scheduler asks the MPI runtime to checkpoint.
	ckptDone, err := o.job.RequestCheckpoint()
	if err != nil {
		return rep, err
	}

	// Phase 0 — coordination: all processes quiesce into SymVirt wait.
	if err := o.barrier(p, "coordination"); err != nil {
		finish(OutcomeRolledBack)
		return rep, err
	}
	rep.Coordination = p.Now() - start

	// Cross-node migrations run under migration noise for the rest of
	// the sequence (hotplug ≈3× slower; Fig. 6 vs Table II).
	cross := false
	for i, t := range o.tgts {
		if dsts[i] != t.VM.Node() {
			cross = true
		}
	}
	if cross {
		for _, t := range o.tgts {
			t.VM.SetHotplugNoise(true)
		}
		defer func() {
			for _, t := range o.tgts {
				t.VM.SetHotplugNoise(false)
			}
		}()
	}

	// abort recovers from a mid-script failure: the application is parked
	// in SymVirt wait, so we must restore a working configuration —
	// re-attach devices wherever the VM currently sits on an HCA node —
	// and release the guests before surfacing the error. Without this, a
	// failed migration would leave the whole MPI job frozen forever.
	abort := func(st stage, name string, cause error) (Report, error) {
		o.events.Record(metrics.EventRollback, name, "", cause.Error())
		// The migration is over; rollback hotplug runs without precopy
		// traffic, so it must not be billed the migration-noise inflation.
		for _, t := range o.tgts {
			t.VM.SetHotplugNoise(false)
		}
		// Re-attach is only meaningful if some VM currently sits on an
		// HCA-equipped node; on a pure-Ethernet placement the fan-out
		// (and its per-phase confirm cost) is skipped outright.
		anyHCA := false
		for _, t := range o.tgts {
			if t.VM.Node().HCA != nil {
				anyHCA = true
			}
		}
		if anyHCA {
			_ = o.ctl.DeviceAttach(p, DeviceTag, DefaultHostPCIID) // best effort, idempotent
		}
		_ = o.ctl.Signal(symvirt.TokenProceed)
		if st == stageDetach {
			// The guests were still in the checkpoint wait: the proceed
			// token only moves them into the continue wait. Meet them
			// there and release that round too, or ckptDone never
			// resolves and the job stays frozen.
			o.ctl.WaitAll(p)
			_ = o.ctl.Signal(symvirt.TokenProceed)
		}
		ckptDone.Wait(p)
		finish(OutcomeRolledBack)
		return rep, fmt.Errorf("ninja: %s: %w (rolled back; job resumed in place)", name, cause)
	}

	// Phase 1 — detach VMM-bypass devices. Retried under a watchdog: a
	// lost DEVICE_DELETED leaves an agent waiting forever, but the
	// device is actually gone, so the re-run observes it missing and
	// completes immediately. RDMA-native skips the detach outright — the
	// device rides along and its QP state is replayed at the stop-point.
	mark := p.Now()
	if mode != RDMANative {
		if err := o.retryPhase(p, "detach", pol.DetachTimeout, func(wp *sim.Proc) error {
			return o.ctl.DeviceDetach(wp, DeviceTag)
		}); err != nil {
			return abort(stageDetach, "detach", err)
		}
		rep.Detach = p.Now() - mark
	}
	// TokenProceed ends the checkpoint callback; the guests immediately
	// re-enter SymVirt wait from the continue callback.
	if err := o.ctl.Signal(symvirt.TokenProceed); err != nil {
		return rep, err
	}

	// Phase 2 — parallel transfer, the same fan-out and retry loop for
	// every mode (see transfer).
	if err := o.barrier(p, "pre-migration wait_all"); err != nil {
		finish(OutcomeRolledBack)
		return rep, err
	}
	mark = p.Now()
	tr := o.transfer(mode)
	stats, err := o.migrate(p, tr, dsts)
	tr.fill(&rep, stats)
	if err != nil {
		return abort(stageMigrate, tr.phase, err)
	}
	// Only RDMA-native transfers carry QP replay stats.
	for i, st := range rep.VMStats {
		if st.RDMA != nil && st.RDMA.Demoted {
			rdmaDemotions++
			o.events.Record(metrics.EventRDMADemoted, "resync", o.tgts[i].VM.Name(), st.RDMA.DemoteReason)
		}
	}
	if rdmaDemotions > 0 {
		// Demoted VMs hold stale QP caches; dropping the transparent
		// flag makes the continue path run a full BTL reconstruction.
		o.job.SetTransparentCkpt(false)
	}
	rep.Migration = p.Now() - mark

	// Phase 3 — re-attach wherever the VMs actually landed (spare
	// substitution may have changed the plan) on HCA-equipped nodes.
	// RDMA-native never detached, so there is nothing to re-attach.
	needAttach := false
	if policy == AttachAuto && mode != RDMANative {
		for _, t := range o.tgts {
			if t.VM.Node().HCA != nil {
				needAttach = true
			}
		}
	}
	if needAttach {
		if err := o.ctl.Signal(symvirt.TokenHold); err != nil {
			return rep, err
		}
		if err := o.barrier(p, "pre-attach wait_all"); err != nil {
			finish(OutcomeRolledBack)
			return rep, err
		}
		mark = p.Now()
		if err := o.retryPhase(p, "attach", pol.AttachTimeout, func(wp *sim.Proc) error {
			return o.ctl.DeviceAttach(wp, DeviceTag, DefaultHostPCIID)
		}); err != nil {
			if pol.DegradeToTCP {
				// Next rung of the degradation ladder: run on the
				// destination without InfiniBand rather than migrate
				// back. Every VM that should have the device but does
				// not is marked degraded; its guest has no IB binding,
				// so BTL reconstruction picks tcp.
				for _, t := range o.tgts {
					if t.VM.Node().HCA == nil {
						continue
					}
					if _, _, present := t.VM.Bus().FindByTag(DeviceTag); !present {
						o.degraded++
						o.events.Record(metrics.EventDegraded, "attach", t.VM.Name(),
							"device_add kept failing; continuing over the tcp BTL")
					}
				}
			} else {
				return abort(stageAttach, "attach", err)
			}
		}
		rep.Attach = p.Now() - mark
	}

	// Release the guests: link-up confirmation + BTL reconstruction.
	mark = p.Now()
	if err := o.ctl.Signal(symvirt.TokenProceed); err != nil {
		return rep, err
	}
	ckptDone.Wait(p)
	rep.Linkup = p.Now() - mark
	finish(classify())
	return rep, nil
}

// rdmaPreflightFailure checks the RDMA-native preconditions across the
// job: every VM holds its passthrough device and every cross-node
// destination has an HCA. It returns a human-readable reason on the first
// violation, or "" when the top rung can be attempted.
func (o *Orchestrator) rdmaPreflightFailure(dsts []*hw.Node) string {
	for i, t := range o.tgts {
		if _, _, ok := t.VM.Bus().FindByTag(DeviceTag); !ok {
			return fmt.Sprintf("%s: no passthrough device attached", t.VM.Name())
		}
		if _, ok := t.VM.Guest().IBDevice(); !ok {
			return fmt.Sprintf("%s: no HCA bound in guest", t.VM.Name())
		}
		if dsts[i] != t.VM.Node() && dsts[i].HCA == nil {
			return fmt.Sprintf("%s: destination %s has no HCA", t.VM.Name(), dsts[i].Name)
		}
	}
	return ""
}

// terminalRung classifies which ladder rung the run ended on.
func (o *Orchestrator) terminalRung(out Outcome, policy AttachPolicy, rdmaRequested, rdmaPreflightDemoted bool, rdmaDemotions int) RungMode {
	switch {
	case out == OutcomeRolledBack:
		return ModeRollback
	case out == OutcomeDegradedTCP:
		return ModeTCP
	case rdmaRequested && !rdmaPreflightDemoted && rdmaDemotions == 0:
		return ModeRDMANative
	case policy == AttachNever:
		return ModeTCP
	default:
		// Hotplug script: if no guest ends the run with a usable HCA
		// (Ethernet destination), the job is effectively on the tcp BTL.
		for _, t := range o.tgts {
			if t.VM.Guest().IBUsable() {
				return ModeHotplug
			}
		}
		return ModeTCP
	}
}

// substituteSpare replaces dsts[i] with a node from the spare pool when
// the planned destination is down and a pool is configured.
func (o *Orchestrator) substituteSpare(dsts []*hw.Node, i int, vmName, phase string) {
	if !dsts[i].Failed() || o.opts.Spares == nil {
		return
	}
	if sp := o.opts.Spares.Acquire(dsts); sp != nil {
		o.sparesUsed++
		o.events.Record(metrics.EventSpareUsed, phase, vmName,
			fmt.Sprintf("%s is down, redirecting to spare %s", dsts[i].Name, sp.Name))
		dsts[i] = sp
	}
}

// SelfMigrate runs the script with every VM migrating to its own node —
// the Table II methodology for isolating hotplug and link-up costs.
func (o *Orchestrator) SelfMigrate(p *sim.Proc) (Report, error) {
	dsts := make([]*hw.Node, len(o.tgts))
	for i, t := range o.tgts {
		dsts[i] = t.VM.Node()
	}
	return o.Migrate(p, dsts)
}
