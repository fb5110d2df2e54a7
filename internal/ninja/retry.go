package ninja

import (
	"errors"
	"fmt"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// ErrPhaseTimeout reports a watchdog expiry: an orchestration phase made
// no progress within its simulated-time budget (e.g. a DEVICE_DELETED
// event that was never delivered left the detach agent blocked forever).
var ErrPhaseTimeout = errors.New("ninja: phase timed out")

// RetryPolicy bounds every externally-visible wait of the Ninja script in
// simulated time and governs how failures are retried. The zero value —
// also what a nil Options.Retry means — is the original fail-fast script:
// no watchdogs, one attempt per phase, rollback on any phase error.
// DefaultRetryPolicy() is the recovering one (zero-fault runs are the same
// under both: watchdog timers cancel without firing).
type RetryPolicy struct {
	// MaxAttempts is the per-phase attempt budget, including the first
	// try. Values < 1 mean 1 (no retries).
	MaxAttempts int
	// Backoff is the simulated-time delay before the second attempt;
	// subsequent delays multiply by BackoffFactor (exponential backoff on
	// the DES clock — nothing here reads the wall clock).
	Backoff sim.Time
	// BackoffFactor scales the backoff between attempts (default 2).
	BackoffFactor float64

	// CoordTimeout bounds each wait_all (quiesce) barrier.
	CoordTimeout sim.Time
	// DetachTimeout bounds one device_del fan-out attempt.
	DetachTimeout sim.Time
	// MigrateTimeout bounds one migration fan-out / per-VM attempt.
	MigrateTimeout sim.Time
	// AttachTimeout bounds one device_add fan-out attempt.
	AttachTimeout sim.Time
	// LinkupTimeout bounds the guest-side "confirm linkup" wait. An IB
	// port stuck in POLLING past this degrades the VM to TCP (or, with
	// DegradeToTCP false, simply proceeds without InfiniBand — the BTL
	// layer falls back to tcp on its own).
	LinkupTimeout sim.Time
	// ResyncTimeout bounds the destination-side QP resync of an
	// RDMA-native migration (the top rung): a replay that would exceed it
	// demotes that VM to the hotplug rung. ≤0 uses the VMM's default
	// window (Params.RDMAResyncTimeout).
	ResyncTimeout sim.Time

	// DegradeToTCP selects graceful degradation over rollback when the
	// re-attach or link-up step is what failed: the job continues on the
	// destination over Ethernet instead of migrating back.
	DegradeToTCP bool
}

// DefaultRetryPolicy returns the knobs used by the fault experiments:
// generous enough that a healthy run never trips a watchdog (IB training
// alone is ≈30 s), tight enough that a wedged phase resolves within a few
// simulated minutes.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxAttempts:    3,
		Backoff:        2 * sim.Second,
		BackoffFactor:  2,
		CoordTimeout:   120 * sim.Second,
		DetachTimeout:  60 * sim.Second,
		MigrateTimeout: 1800 * sim.Second,
		AttachTimeout:  60 * sim.Second,
		LinkupTimeout:  90 * sim.Second,
		ResyncTimeout:  2 * sim.Second,
		DegradeToTCP:   true,
	}
}

func (pol *RetryPolicy) attempts() int {
	if pol.MaxAttempts < 1 {
		return 1
	}
	return pol.MaxAttempts
}

func (pol *RetryPolicy) nextBackoff(cur sim.Time) sim.Time {
	f := pol.BackoffFactor
	if f < 1 {
		f = 2
	}
	return sim.Time(float64(cur) * f)
}

// SparePool hands out replacement destination nodes when a planned
// destination fails mid-migration. internal/scheduler's Spares implements
// it; the interface lives here so ninja does not import the scheduler.
type SparePool interface {
	// Acquire removes and returns a healthy spare not in exclude, or nil
	// when the pool is exhausted.
	Acquire(exclude []*hw.Node) *hw.Node
}

// watch runs op under a simulated-time watchdog: op executes in its own
// process racing a timer. On expiry the op process is abandoned (it stays
// parked on whatever it was waiting for; Kernel.Close reaps it) and
// ErrPhaseTimeout is returned, so the orchestrator can retry a phase whose
// completion signal was lost. d <= 0 runs op inline, unbounded.
func (o *Orchestrator) watch(p *sim.Proc, name string, d sim.Time, op func(wp *sim.Proc) error) error {
	if d <= 0 {
		return op(p)
	}
	fut := sim.NewFuture[error](o.k)
	o.k.Go("ninja-watchdog/"+name, func(wp *sim.Proc) {
		fut.Set(op(wp))
	})
	err, ok := sim.WaitTimeout(p, fut, d)
	if !ok {
		return fmt.Errorf("%w: %s after %v", ErrPhaseTimeout, name, d)
	}
	return err
}

// barrier is the script's wait_all under the coordination watchdog. A
// quiesce that never completes cannot be rolled back (signalling before
// wait_all is a protocol violation), so the caller surfaces its timeout
// as-is.
func (o *Orchestrator) barrier(p *sim.Proc, name string) error {
	err := o.watch(p, name, o.opts.Retry.CoordTimeout, func(wp *sim.Proc) error {
		o.ctl.WaitAll(wp)
		return nil
	})
	if err != nil {
		o.events.Record(metrics.EventPhaseTimeout, name, "", err.Error())
	}
	return err
}

// retryPhase runs a fan-out phase with the policy's watchdog and attempt
// budget: timeout or error → exponential backoff in simulated time → rerun.
// Phases are written idempotently (detach skips already-removed devices,
// attach skips already-present ones), which is what makes blind re-runs
// safe after a lost completion event.
func (o *Orchestrator) retryPhase(p *sim.Proc, name string, timeout sim.Time, op func(wp *sim.Proc) error) error {
	pol := o.opts.Retry
	attempts := pol.attempts()
	backoff := pol.Backoff
	var err error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			if backoff > 0 {
				p.Sleep(backoff)
				backoff = pol.nextBackoff(backoff)
			}
			o.events.Record(metrics.EventRetry, name, "", fmt.Sprintf("attempt %d/%d", attempt, attempts))
		}
		err = o.watch(p, name, timeout, op)
		if err == nil {
			if attempt > 1 {
				o.retries++
				o.events.Record(metrics.EventRetryOK, name, "", fmt.Sprintf("succeeded on attempt %d", attempt))
			}
			return nil
		}
		kind := metrics.EventPhaseError
		if errors.Is(err, ErrPhaseTimeout) {
			kind = metrics.EventPhaseTimeout
		}
		o.events.Record(kind, name, "", err.Error())
	}
	return err
}
