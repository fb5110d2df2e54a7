package experiments

import (
	"fmt"

	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/ninja"
	"repro/internal/sim"
)

// This file implements the RDMA-native extension experiment: the same
// IB→IB gang migration run once per degradation-ladder rung. The hotplug
// baseline pays the paper's fixed overheads (detach/attach fan-out plus
// ≈30 s of destination link training — the Fig. 6 / Table II terms);
// QP checkpoint/replay eliminates both, and each injected replay fault
// (resync stall past the window, stale snapshot epoch, incompatible
// destination HCA) must demote cleanly to the hotplug rung rather than
// fail the migration.

// RDMARow is one ladder rung's measured outcome.
type RDMARow struct {
	Scenario string
	// Mode is the degradation-ladder rung the run terminated on.
	Mode ninja.RungMode
	// Demoted counts VMs whose QP replay fell back to the hotplug rung.
	Demoted int
	// Fired counts fault-plan firings.
	Fired int
	// Hotplug is detach+attach; Linkup the resume-to-traffic span (IB
	// training when a demotion or the baseline re-attached an HCA).
	Hotplug sim.Time
	Linkup  sim.Time
	Total   sim.Time
	Outcome ninja.Outcome
	// Stats is the kernel's scheduler counters after the run (not
	// rendered); a rerun of the row must reproduce them exactly.
	Stats sim.Stats
}

// rdmaScenario describes one rung of the ext-rdma ladder.
type rdmaScenario struct {
	Name string
	// RDMA selects the RDMA-native entry point (false = hotplug baseline).
	RDMA bool
	// DstIB gives the destination cluster InfiniBand (false exercises the
	// preflight demotion: no destination HCA to replay onto).
	DstIB bool
	// Specs is the fault plan, At relative to the migration trigger.
	// Targets use the deployment's node names (source "agc-ib-n<i>",
	// destination "agc-dst-n<i>").
	Specs []faults.Spec
}

func extRDMAScenarios() []rdmaScenario {
	return []rdmaScenario{
		{Name: "hotplug-baseline", RDMA: false, DstIB: true},
		{Name: "rdma-native", RDMA: true, DstIB: true},
		{Name: "rdma-resync-timeout", RDMA: true, DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindQPResyncStall, Target: "agc-dst-n00", For: 10 * sim.Second}}},
		{Name: "rdma-stale-qp", RDMA: true, DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindQPStale, Target: "agc-ib-n00"}}},
		{Name: "rdma-hca-mismatch", RDMA: true, DstIB: true,
			Specs: []faults.Spec{{Kind: faults.KindHCAMismatch, Target: "agc-dst-n00"}}},
		{Name: "rdma-preflight-no-ib", RDMA: true, DstIB: false},
	}
}

// runRDMAScenario executes one rung on a fresh 2-VM deployment.
func runRDMAScenario(sc rdmaScenario) (RDMARow, error) {
	row := RDMARow{Scenario: sc.Name}
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
	opts := ninja.Options{Retry: &pol}
	orch := ninja.New(d.Job, opts)
	dsts := d.DstNodes(len(d.VMs))

	// Arm the fault plan (times shifted to absolute), logging firings into
	// the orchestrator's trail. The victim list spans both clusters so
	// source-side (stale snapshot) and destination-side (resync stall,
	// mismatch) targets both resolve.
	trigger := d.Epoch + 5*sim.Second
	plan := faults.Plan{Name: sc.Name, Seed: 1}
	for _, s := range sc.Specs {
		s.At += trigger
		plan.Specs = append(plan.Specs, s)
	}
	victims := append(append([]*hw.Node(nil), d.SrcNodes(len(d.VMs))...), dsts...)
	inj := faults.NewInjector(d.K, plan, faults.Env{
		VMs: d.VMs, Nodes: victims, Store: d.NFS,
		Log: func(kind, subject, detail string) {
			orch.Events().Record(metrics.EventFaultInjected, kind, subject, detail)
		},
	})
	if err := inj.Arm(); err != nil {
		return row, err
	}

	app := d.Job.Launch("app", func(p *sim.Proc, rk *mpi.Rank) {
		rk.ComputeLoop(p, 1600, 0.2)
	})

	var rep ninja.Report
	var migErr error
	d.K.Go("driver", func(p *sim.Proc) {
		if trigger > p.Now() {
			p.Sleep(trigger - p.Now())
		}
		if sc.RDMA {
			rep, migErr = orch.RDMAMigrate(p, dsts)
		} else {
			rep, migErr = orch.MigratePolicy(p, dsts, ninja.AttachAuto)
		}
	})
	d.K.Run()

	if !app.Done() {
		return row, fmt.Errorf("experiments: %s: app incomplete (job wedged)", sc.Name)
	}
	if migErr != nil {
		return row, fmt.Errorf("experiments: %s: unexpected error: %w", sc.Name, migErr)
	}
	row.Mode = rep.Mode
	row.Demoted = rep.RDMADemoted
	row.Fired = inj.Fired()
	row.Hotplug = rep.Hotplug()
	row.Linkup = rep.Linkup
	row.Total = rep.Total
	row.Outcome = rep.Outcome
	row.Stats = d.K.Stats()
	return row, nil
}

// ExtRDMA runs the RDMA-native ladder matrix.
func ExtRDMA() ([]RDMARow, error) {
	var rows []RDMARow
	for _, sc := range extRDMAScenarios() {
		row, err := runRDMAScenario(sc)
		if err != nil {
			return rows, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ExtRDMARender formats the ladder matrix.
func ExtRDMARender(rows []RDMARow) *metrics.Table {
	t := metrics.NewTable("Ext. — RDMA-native (QP replay) vs hotplug ladder",
		"scenario", "rung", "demoted", "fired", "hotplug [s]", "linkup [s]", "total [s]", "outcome")
	for _, r := range rows {
		t.AddRow(r.Scenario, string(r.Mode), r.Demoted, r.Fired,
			r.Hotplug, r.Linkup, r.Total, string(r.Outcome))
	}
	return t
}
