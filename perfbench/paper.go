package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/ninja"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// paper workload: the paper's own migrations. One pass runs Table II
// (four self-migrations), Fig. 6 (four memtest footprints), Fig. 7 (the
// four NPB class D kernels on 8 VMs × 8 ranks, migrated at the scaled
// trigger), one RDMA-native migration whose QP replay a seeded fault
// demotes on one VM, and one Fig. 6 migration with a seeded precopy
// abort that the retry policy recovers (the pass's one non-clean
// migration, so failed_frac is measured on the failure path too).

// table2Ref is one Table II row: the setting, the values EXPERIMENTS.md
// prints for this model and the paper's published values.
type table2Ref struct {
	src, dst          string
	attach            bool
	policy            ninja.AttachPolicy
	hotplug, linkup   float64 // EXPERIMENTS.md, 2 decimals
	pubHot, pubLinkup float64 // paper
}

var table2Refs = []table2Ref{
	{"Infiniband", "Infiniband", true, ninja.AttachAuto, 3.84, 29.78, 3.88, 29.91},
	{"Infiniband", "Ethernet", true, ninja.AttachNever, 2.71, 0.00, 2.80, 0.00},
	{"Ethernet", "Infiniband", false, ninja.AttachAuto, 1.16, 29.78, 1.15, 29.79},
	{"Ethernet", "Ethernet", false, ninja.AttachNever, 0.03, 0.00, 0.13, 0.00},
}

// fig6Ref is one Fig. 6 footprint: EXPERIMENTS.md values (1 decimal) and
// the paper's migration and link-up bars. The paper's hotplug bar is a
// range (11.3–14.6 s), so it is checked but not scored.
type fig6Ref struct {
	gb                         float64
	migration, hotplug, linkup float64
	pubMigration, pubLinkup    float64
}

var fig6Refs = []fig6Ref{
	{2, 39.1, 11.4, 29.8, 35.9, 28.5},
	{4, 41.3, 11.4, 29.8, 38.7, 28.5},
	{8, 45.7, 11.4, 29.8, 44.2, 28.5},
	{16, 54.6, 11.4, 29.8, 53.7, 28.6},
}

// fig7Ref is one Fig. 7 kernel's overhead breakdown from EXPERIMENTS.md;
// it does not depend on the iteration scale.
var fig7Refs = []struct {
	kernel                     string
	migration, hotplug, linkup float64
}{
	{"BT", 84.7, 11.4, 29.8},
	{"CG", 50.3, 11.4, 29.8},
	{"FT", 130.2, 11.4, 29.8},
	{"LU", 63.7, 11.4, 29.8},
}

// paperScale is the Fig. 7 iteration scale (the trigger scales with it).
func paperScale(cfg config) float64 {
	if cfg.small {
		return 0.02
	}
	return 0.2
}

func runPaper(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	scale := paperScale(cfg)
	m, err := repeat(func(p *pass) error { return paperPass(p, cfg.seed, scale) }, cfg.budget, 3, tr)
	if err != nil {
		return nil, err
	}
	return inProcessOutcome(cfg, m, tr), nil
}

// paperTotals accumulates the pass's simulated downtime and frozen-gang
// affinity cost over its migrations.
type paperTotals struct{ downtime, cost float64 }

func (t *paperTotals) book(rep ninja.Report, vms int, ib bool) {
	t.downtime += rep.Total.Seconds()
	t.cost += frozenCost(vms, ib, rep.Total)
}

// paperPass runs every migration of the paper workload once.
func paperPass(p *pass, seed int64, scale float64) error {
	rng := rand.New(rand.NewSource(seed))
	abortVictim := fmt.Sprintf("vm%02d", rng.Intn(8))
	resyncVictim := fmt.Sprintf("agc-dst-n%02d", rng.Intn(2))

	var tot paperTotals
	var makespan float64
	if err := paperPublished(p, &tot); err != nil {
		return err
	}
	for _, r := range fig7Refs {
		bench, err := workloads.NPBClassD(r.kernel)
		if err != nil {
			return err
		}
		bench.Iterations = max(int(float64(bench.Iterations)*scale+0.5), 4)
		rep, elapsed, err := p.paperMigration("fig7/"+r.kernel, experiments.DeployConfig{
			NVMs: 8, RanksPerVM: 8, AttachHCA: true, DstHasIB: true, ContinueLikeRestart: true,
		}, bench, sim.FromSeconds(180*scale), nil, nil, migrateToDst)
		if err != nil {
			return err
		}
		tot.book(rep, 8, true)
		makespan += elapsed.Seconds()
		mig, hot, link := rep.Migration.Seconds(), rep.Hotplug().Seconds(), rep.Linkup.Seconds()
		p.checkf(fmt.Sprintf("%.1f/%.1f/%.1f", mig, hot, link) == fmt.Sprintf("%.1f/%.1f/%.1f", r.migration, r.hotplug, r.linkup),
			"fig7 %s: migration/hotplug/link-up %.1f/%.1f/%.1f, want %.1f/%.1f/%.1f",
			r.kernel, mig, hot, link, r.migration, r.hotplug, r.linkup)
	}

	// RDMA-native migration of a 2-VM gang; a seeded destination stalls
	// its QP resync past the retry policy's bound, demoting that VM.
	pol := ninja.DefaultRetryPolicy()
	rep, _, err := p.paperMigration("rdma", experiments.DeployConfig{
		NVMs: 2, RanksPerVM: 1, GuestMemGB: 8, AttachHCA: true, DstHasIB: true, ContinueLikeRestart: true,
	}, rdmaApp{}, 5*sim.Second, &pol, &faults.Spec{Kind: faults.KindQPResyncStall, Target: resyncVictim, For: 10 * sim.Second},
		func(o *ninja.Orchestrator, pr *sim.Proc, d *experiments.Deployment) (ninja.Report, error) {
			return o.RDMAMigrate(pr, d.DstNodes(2))
		})
	if err != nil {
		return err
	}
	tot.book(rep, 2, true)
	p.checkf(rep.RDMADemoted == 1 && rep.Outcome == ninja.OutcomeClean,
		"rdma: demoted %d outcome %s, want 1 demoted and clean", rep.RDMADemoted, rep.Outcome)

	// Fig. 6 2 GB migration with a seeded precopy abort on the first
	// pass; the retry policy re-runs the migration.
	rep, _, err = p.paperMigration("faulted/migrate-abort", fig6Deploy, memtest(2), 30*sim.Second, &pol,
		&faults.Spec{Kind: faults.KindMigrateAbort, Target: abortVictim, Pass: 1}, migrateToDst)
	if err != nil {
		return err
	}
	tot.book(rep, 8, true)
	p.checkf(rep.Outcome == ninja.OutcomeRetriedOK, "faulted migration: outcome %s, want %s", rep.Outcome, ninja.OutcomeRetriedOK)

	if p.layer != nil {
		// The application runs whenever the kernel runs outside a migration.
		p.layer["mpi.app_host_s"] = p.layer["sim.kernel_host_s"] - p.layer["ninja.migrate_host_s"]
	}
	p.sim["sim_downtime_s"] = tot.downtime
	p.sim["sim_makespan_s"] = makespan
	p.sim["sim_cost"] = tot.cost
	return nil
}

// paperPublished runs the Table II and Fig. 6 migrations, checks them
// against EXPERIMENTS.md and sets p.sim["model_err_s"]: the mean
// |simulated − published| over the paper's 16 numeric values (Table II
// hotplug and link-up, Fig. 6 migration and link-up).
func paperPublished(p *pass, tot *paperTotals) error {
	var got, want []float64
	for _, r := range table2Refs {
		rep, _, err := p.paperMigration("table2/"+r.src+"-"+r.dst, experiments.DeployConfig{
			NVMs: 8, RanksPerVM: 1, AttachHCA: r.attach, DstHasIB: true, ContinueLikeRestart: true,
		}, &workloads.Memtest{ArrayBytes: 2e9, Passes: 400}, 5*sim.Second, nil, nil,
			func(o *ninja.Orchestrator, pr *sim.Proc, d *experiments.Deployment) (ninja.Report, error) {
				return o.MigratePolicy(pr, d.SrcNodes(8), r.policy)
			})
		if err != nil {
			return err
		}
		tot.book(rep, 8, r.attach)
		hot, link := rep.Hotplug().Seconds(), rep.Linkup.Seconds()
		p.checkf(fmt.Sprintf("%.2f/%.2f", hot, link) == fmt.Sprintf("%.2f/%.2f", r.hotplug, r.linkup),
			"table2 %s→%s: hotplug/link-up %.2f/%.2f, want %.2f/%.2f", r.src, r.dst, hot, link, r.hotplug, r.linkup)
		got = append(got, hot, link)
		want = append(want, r.pubHot, r.pubLinkup)
	}
	for _, r := range fig6Refs {
		rep, _, err := p.paperMigration(fmt.Sprintf("fig6/%.0fGB", r.gb), fig6Deploy, memtest(r.gb), 30*sim.Second, nil, nil, migrateToDst)
		if err != nil {
			return err
		}
		tot.book(rep, 8, true)
		mig, hot, link := rep.Migration.Seconds(), rep.Hotplug().Seconds(), rep.Linkup.Seconds()
		p.checkf(fmt.Sprintf("%.1f/%.1f/%.1f", mig, hot, link) == fmt.Sprintf("%.1f/%.1f/%.1f", r.migration, r.hotplug, r.linkup),
			"fig6 %.0fGB: migration/hotplug/link-up %.1f/%.1f/%.1f, want %.1f/%.1f/%.1f",
			r.gb, mig, hot, link, r.migration, r.hotplug, r.linkup)
		got = append(got, mig, link)
		want = append(want, r.pubMigration, r.pubLinkup)
	}
	p.sim["model_err_s"] = meanAbsErr(got, want)
	return nil
}

// memtest is the Fig. 6 memtest for a footprint: enough passes to keep
// writing for about 240 s.
func memtest(gb float64) *workloads.Memtest {
	passTime := gb * 1e9 / workloads.MemWriteBandwidth
	return &workloads.Memtest{ArrayBytes: gb * 1e9, Passes: int(240/passTime) + 1}
}

var fig6Deploy = experiments.DeployConfig{
	NVMs: 8, RanksPerVM: 1, AttachHCA: true, DstHasIB: true, ContinueLikeRestart: true,
}

func migrateToDst(o *ninja.Orchestrator, pr *sim.Proc, d *experiments.Deployment) (ninja.Report, error) {
	return o.Migrate(pr, d.DstNodes(len(d.VMs)))
}

// rdmaApp is the ext-rdma application: 1600 iterations of 0.2 s compute
// with a fault-tolerance probe each, over 2 GB of data per VM.
type rdmaApp struct{}

func (rdmaApp) Name() string { return "rdma-app" }
func (rdmaApp) Install(job *mpi.Job) error {
	for _, vm := range job.VMs() {
		if _, err := vm.Memory().AddRegion("data", 2*hw.GB, 0, 0); err != nil {
			return err
		}
	}
	return nil
}
func (rdmaApp) Body(p *sim.Proc, rk *mpi.Rank) {
	for i := 0; i < 1600; i++ {
		rk.FTProbe(p)
		rk.Compute(p, 0.2)
	}
}

// paperMigration deploys one testbed, starts the application, migrates
// at trigger (relative to the application start) and runs the kernel
// until everything finished. pol, when non-nil, gives the migration its
// own retry-enabled orchestrator; fault, when non-nil, is armed at the
// trigger. It returns the report and the application's simulated run
// time, and books the migration as one op of the pass.
func (p *pass) paperMigration(name string, dc experiments.DeployConfig, app workloads.Workload,
	trigger sim.Time, pol *ninja.RetryPolicy, fault *faults.Spec,
	migrate func(*ninja.Orchestrator, *sim.Proc, *experiments.Deployment) (ninja.Report, error),
) (ninja.Report, sim.Time, error) {
	var rep ninja.Report
	var d *experiments.Deployment
	deployTime, err := p.deploy("experiments.Deploy", func() error {
		var err error
		d, err = experiments.Deploy(dc)
		return err
	})
	if err != nil {
		return rep, 0, err
	}
	defer d.K.Close()
	t := time.Now()
	orch := d.Orch
	if pol != nil {
		orch = ninja.New(d.Job, ninja.Options{Retry: pol})
	}
	appDone, err := workloads.Run(d.Job, app)
	if err != nil {
		return rep, 0, err
	}
	start := d.K.Now()
	if fault != nil {
		spec := *fault
		spec.At = start + trigger
		nodes := append(append([]*hw.Node(nil), d.SrcNodes(len(d.VMs))...), d.DstNodes(len(d.VMs))...)
		inj := faults.NewInjector(d.K, faults.Plan{Name: name, Seed: 1, Specs: []faults.Spec{spec}}, faults.Env{
			VMs: d.VMs, Nodes: nodes, Store: d.NFS,
			Log: func(kind, subject, detail string) {
				orch.Events().Record(metrics.EventFaultInjected, kind, subject, detail)
			},
		})
		if err := inj.Arm(); err != nil {
			return rep, 0, err
		}
	}
	var migErr error
	d.K.Go("driver", func(pr *sim.Proc) {
		pr.Sleep(trigger)
		sp := p.begin("ninja.Orchestrator.Migrate", p.kspan)
		t := time.Now()
		rep, migErr = migrate(orch, pr, d)
		p.add("ninja.migrate_host_s", time.Since(t).Seconds())
		p.end(sp)
	})
	p.kernel(d.K, "sim.Kernel.Run", func() { d.K.Run() })
	if migErr != nil {
		return rep, 0, fmt.Errorf("paper %s: %w", name, migErr)
	}
	p.checkf(appDone.Done(), "paper %s: application did not finish", name)
	elapsed := d.K.Now() - start
	p.ninjaReport(rep)
	p.ops = append(p.ops, op{name: name, host: deployTime + time.Since(t), failed: rep.Outcome != ninja.OutcomeClean})
	p.record("%s total=%d hotplug=%d linkup=%d migration=%d elapsed=%d outcome=%s demoted=%d",
		name, rep.Total, rep.Hotplug(), rep.Linkup, rep.Migration, elapsed, rep.Outcome, rep.RDMADemoted)
	return rep, elapsed, nil
}
