package experiments

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/ninja"
	"repro/internal/scheduler"
	"repro/internal/sim"
)

// This file implements the robustness extension experiment: a phase ×
// fault outcome matrix. Each scenario deploys a fresh testbed, launches
// an iterating MPI job, arms one fault plan against a specific phase of
// the Ninja script, and triggers a migration. The run must end with the
// job healthy — every injected fault resolved by retry, degradation to
// TCP, or rollback-in-place — and the MPI iteration counter strictly
// monotone across the fault (no lost or repeated iterations).

// FaultScenario describes one matrix row's setup.
type FaultScenario struct {
	Name string
	// Phase is the Ninja phase the fault targets (table label).
	Phase string
	// Specs is the fault plan, with At relative to the migration trigger
	// (shifted to absolute simulated time at deploy).
	Specs []faults.Spec
	// Mode selects live or cold transfer.
	Mode ninja.Mode
	// DstIB gives the destination cluster InfiniBand.
	DstIB bool
	// Spares adds destination-cluster standby nodes to the orchestrator.
	Spares int
	// Tune adjusts the retry policy (applied over DefaultRetryPolicy).
	Tune func(*ninja.RetryPolicy)
}

// FaultRow is one matrix row's result.
type FaultRow struct {
	Scenario string
	Phase    string
	Outcome  ninja.Outcome
	// Err is the orchestration error (expected only for rollback rows).
	Err         error
	Retries     int
	SparesUsed  int
	DegradedVMs int
	FaultsFired int
	Total       sim.Time
	// Iters is the number of MPI iterations completed; Monotone is false
	// if the per-rank iteration counter ever repeated or went backwards.
	Iters    int
	Monotone bool

	// events and stats are the run's orchestration trail and kernel
	// counters, kept for the golden test.
	events []metrics.Event
	stats  sim.Stats
}

// extFaultScenarios is the matrix: every phase of the script crossed with
// the fault class that stresses it, plus the zero-fault control.
func extFaultScenarios() []FaultScenario {
	const trig = 0 // shorthand: offsets below are relative to the trigger
	return []FaultScenario{
		{
			Name: "none", Phase: "-", DstIB: true,
		},
		{
			Name: "drop-device-deleted", Phase: "detach", DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindDropEvent, Target: "vm00", Arg: "DEVICE_DELETED"}},
			Tune: func(pol *ninja.RetryPolicy) {
				pol.DetachTimeout = 20 * sim.Second // don't wait a full minute on the lost event
			},
		},
		{
			Name: "qmp-error-detach", Phase: "detach", DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindQMPError, Target: "vm00", Arg: "device_del"}},
		},
		{
			Name: "migrate-abort", Phase: "migration", DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindMigrateAbort, Target: "vm00", Pass: 1}},
		},
		{
			Name: "dst-node-crash", Phase: "migration", DstIB: true, Spares: 1,
			Specs: []faults.Spec{{Kind: faults.KindNodeCrash, At: trig + 1*sim.Second}},
		},
		{
			Name: "qmp-error-attach", Phase: "attach", DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindQMPError, Target: "vm00", Arg: "device_add"}},
		},
		{
			Name: "ib-train-stall", Phase: "linkup", DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindTrainStall, For: 120 * sim.Second}},
		},
		{
			Name: "nfs-outage", Phase: "cold migration", Mode: ninja.Cold,
			Specs: []faults.Spec{{Kind: faults.KindNFSOutage, At: trig, For: 30 * sim.Second}},
			Tune: func(pol *ninja.RetryPolicy) {
				pol.Backoff = 20 * sim.Second // outlast the outage window
			},
		},
		{
			Name: "attach-fails-no-degrade", Phase: "attach", DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindQMPError, Target: "vm00", Arg: "device_add", Count: 10}},
			Tune: func(pol *ninja.RetryPolicy) {
				pol.DegradeToTCP = false // force the rollback rung
				pol.MaxAttempts = 2
			},
		},
	}
}

// runFaultScenario executes one matrix row on a fresh 2-VM deployment.
func runFaultScenario(sc FaultScenario) (FaultRow, error) {
	row := FaultRow{Scenario: sc.Name, Phase: sc.Phase, Monotone: true}
	d, err := Deploy(DeployConfig{
		NVMs: 2, RanksPerVM: 1, GuestMemGB: 8,
		AttachHCA: true, DstHasIB: sc.DstIB, ContinueLikeRestart: true,
	})
	if err != nil {
		return row, err
	}
	defer d.K.Close()
	for _, vm := range d.VMs {
		if _, err := vm.Memory().AddRegion("data", 2*hw.GB, 0, 0); err != nil {
			return row, err
		}
	}

	pol := ninja.DefaultRetryPolicy()
	if sc.Tune != nil {
		sc.Tune(&pol)
	}
	opts := ninja.Options{Retry: &pol}
	dsts := d.DstNodes(len(d.VMs))
	if sc.Spares > 0 {
		opts.Spares = scheduler.NewSpares(d.Dst.Nodes[len(d.VMs) : len(d.VMs)+sc.Spares]...)
	}
	orch := ninja.New(d.Job, opts)

	// Shift the plan's trigger-relative times to absolute simulated time
	// and arm it, logging firings into the orchestrator's event trail.
	trigger := d.Epoch + 5*sim.Second
	plan := faults.Plan{Name: sc.Name, Seed: 1}
	for _, s := range sc.Specs {
		s.At += trigger
		plan.Specs = append(plan.Specs, s)
	}
	inj := faults.NewInjector(d.K, plan, faults.Env{
		VMs: d.VMs, Nodes: dsts, Store: d.NFS,
		Log: func(kind, subject, detail string) {
			orch.Events().Record(metrics.EventFaultInjected, kind, subject, detail)
		},
	})
	if err := inj.Arm(); err != nil {
		return row, err
	}

	// The iterating job: rank 0's iteration counter is the monotonicity
	// witness — every index must be seen exactly once, in order.
	const iters = 1600
	lastIter, lastAt := -1, sim.Time(-1)
	app := d.Job.Launch("app", func(p *sim.Proc, rk *mpi.Rank) {
		for i := 0; i < iters; i++ {
			rk.FTProbe(p)
			rk.Compute(p, 0.2)
			if rk.RankID() == 0 {
				if i != lastIter+1 || p.Now() < lastAt {
					row.Monotone = false
				}
				lastIter, lastAt = i, p.Now()
				row.Iters = i + 1
			}
		}
	})

	var rep ninja.Report
	var migErr error
	d.K.Go("driver", func(p *sim.Proc) {
		if trigger > p.Now() {
			p.Sleep(trigger - p.Now())
		}
		if sc.Mode == ninja.Cold {
			rep, migErr = orch.ColdMigrate(p, dsts)
		} else {
			rep, migErr = orch.Migrate(p, dsts)
		}
	})
	d.K.Run()

	if !app.Done() {
		return row, fmt.Errorf("experiments: %s: app incomplete (job wedged)", sc.Name)
	}
	row.Outcome = rep.Outcome
	row.Err = migErr
	row.Retries = rep.Retries
	row.SparesUsed = rep.SparesUsed
	row.DegradedVMs = rep.DegradedToTCP
	row.FaultsFired = inj.Fired()
	row.Total = rep.Total
	// The fresh orchestrator's whole log, not rep.Events: that starts at
	// the run's mark, after a fault fired at the trigger instant.
	row.events, row.stats = orch.Events().Events(), d.K.Stats()
	if migErr != nil && rep.Outcome != ninja.OutcomeRolledBack {
		return row, fmt.Errorf("experiments: %s: unexpected error: %w", sc.Name, migErr)
	}
	return row, nil
}

// ExtFaultMatrix runs every fault scenario and returns the outcome matrix.
func ExtFaultMatrix() ([]FaultRow, error) {
	var rows []FaultRow
	for _, sc := range extFaultScenarios() {
		row, err := runFaultScenario(sc)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ExtFaultMatrixRender formats the phase × fault outcome matrix.
func ExtFaultMatrixRender(rows []FaultRow) *metrics.Table {
	t := metrics.NewTable("Ext. — fault injection × Ninja phase outcome matrix",
		"fault", "phase", "outcome", "retries", "spares", "degraded", "fired", "total [s]", "mpi-iters")
	for _, r := range rows {
		iters := fmt.Sprintf("%d monotone", r.Iters)
		if !r.Monotone {
			iters = fmt.Sprintf("%d NON-MONOTONE", r.Iters)
		}
		t.AddRow(r.Scenario, r.Phase, string(r.Outcome),
			r.Retries, r.SparesUsed, r.DegradedVMs, r.FaultsFired, r.Total, iters)
	}
	return t
}
