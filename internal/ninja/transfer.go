package ninja

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/vmm"
)

// transfer is what Phase 2 of the script does differently per mode. The
// controller fan-out, its watchdog and the per-VM retry loop with spare
// substitution are shared by every mode:
//
//	mode        phase / agent                  a VM failed when          fills
//	Live        migration / migrate            its stats carry Err       VMStats
//	RDMANative  rdma migration / migrate-rdma  its stats carry Err       VMStats
//	Cold        cold migration / cold-migrate  it is still saved         ColdStats
//
// In every mode a VM that is not on its destination failed too.
type transfer struct {
	phase string // watchdog, event and rollback name
	agent string // controller agent name
	cold  bool   // checkpoint/restart: fills ColdStats, fails while saved
	// move transfers one VM to dst.
	move func(p *sim.Proc, vm *vmm.VM, dst *hw.Node) (vmStats, error)
}

// vmStats is one VM's transfer statistics; a mode fills one of the two.
type vmStats struct {
	live vmm.MigrationStats
	cold vmm.ColdStats
}

func (o *Orchestrator) transfer(mode Mode) transfer {
	switch mode {
	case Cold:
		return transfer{phase: "cold migration", agent: "cold-migrate", cold: true,
			move: func(p *sim.Proc, vm *vmm.VM, dst *hw.Node) (vmStats, error) {
				st, err := vm.ColdMigrate(p, dst)
				return vmStats{cold: st}, err
			}}
	case RDMANative:
		resync := o.opts.Retry.ResyncTimeout
		return transfer{phase: "rdma migration", agent: "migrate-rdma",
			move: func(p *sim.Proc, vm *vmm.VM, dst *hw.Node) (vmStats, error) {
				fut, err := vm.Monitor().MigrateTransparent(dst, resync)
				return awaitMigration(p, fut, err)
			}}
	default:
		return transfer{phase: "migration", agent: "migrate",
			move: func(p *sim.Proc, vm *vmm.VM, dst *hw.Node) (vmStats, error) {
				fut, err := vm.Monitor().Migrate(dst)
				return awaitMigration(p, fut, err)
			}}
	}
}

// awaitMigration waits out a started live migration; err is the error
// that refused to start it.
func awaitMigration(p *sim.Proc, fut *sim.Future[vmm.MigrationStats], err error) (vmStats, error) {
	if err != nil {
		return vmStats{live: vmm.MigrationStats{Err: err}}, err
	}
	st := fut.Wait(p)
	return vmStats{live: st}, st.Err
}

// failed reports whether vm still has to be moved to dst after its last
// attempt left st.
func (tr transfer) failed(vm *vmm.VM, st vmStats, dst *hw.Node) bool {
	if vm.Node() != dst {
		return true
	}
	if tr.cold {
		return vm.Saved() // the restore failed after savevm
	}
	return st.live.Err != nil
}

// fill puts the per-VM stats into the Report slice the mode fills.
func (tr transfer) fill(rep *Report, stats []vmStats) {
	live, cold := make([]vmm.MigrationStats, len(stats)), make([]vmm.ColdStats, len(stats))
	for i, st := range stats {
		live[i], cold[i] = st.live, st.cold
	}
	if tr.cold {
		rep.ColdStats = cold
	} else {
		rep.VMStats = live
	}
}

// migrate runs the transfer: one controller fan-out under the migration
// watchdog, then, when the policy allows more than one attempt, per-VM
// retries (in VM order, with spare substitution) for every VM the fan-out
// left behind. A VM's stats are those of its fan-out attempt unless a
// retry succeeded.
func (o *Orchestrator) migrate(p *sim.Proc, tr transfer, dsts []*hw.Node) ([]vmStats, error) {
	pol := o.opts.Retry
	var fanned []vmStats
	err := o.watch(p, tr.phase, pol.MigrateTimeout, func(wp *sim.Proc) error {
		stats := make([]vmStats, len(o.tgts))
		err := o.ctl.Migrate(wp, tr.agent, dsts, func(ap *sim.Proc, i int, dst *hw.Node) (err error) {
			stats[i], err = tr.move(ap, o.tgts[i].VM, dst)
			return err
		})
		fanned = stats
		return err
	})
	stats := fanned
	if stats == nil {
		// The watchdog expired: the abandoned fan-out's stats are void.
		stats = make([]vmStats, len(o.tgts))
	}
	if err == nil || pol.attempts() < 2 {
		return stats, err
	}
	for i, t := range o.tgts {
		if !tr.failed(t.VM, stats[i], dsts[i]) {
			continue
		}
		backoff := pol.Backoff
		for attempt := 2; attempt <= pol.attempts(); attempt++ {
			if backoff > 0 {
				p.Sleep(backoff)
				backoff = pol.nextBackoff(backoff)
			}
			o.substituteSpare(dsts, i, t.VM.Name(), tr.phase)
			o.events.Record(metrics.EventRetry, tr.phase, t.VM.Name(),
				fmt.Sprintf("attempt %d/%d -> %s", attempt, pol.attempts(), dsts[i].Name))
			var st vmStats
			if st, err = tr.move(p, t.VM, dsts[i]); err == nil {
				stats[i] = st
				o.retries++
				o.events.Record(metrics.EventRetryOK, tr.phase, t.VM.Name(), "")
				break
			}
			o.events.Record(metrics.EventPhaseError, tr.phase, t.VM.Name(), err.Error())
		}
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}
