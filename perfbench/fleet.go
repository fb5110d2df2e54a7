package main

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/ninja"
	"repro/internal/sim"
)

// fleet workload: the ext-fleet matrix under both sequencers (LPT and
// time-expanded max-flow), plus one batched evacuation in which a seeded
// IB destination node's link training stalls, so one job degrades to TCP
// (the by-design non-clean outcome). Each row deploys a fresh three-site
// fleet.

// fleetJobs is the fleet size per directive.
func fleetJobs(cfg config) int {
	if cfg.small {
		return 4
	}
	return 16
}

// fleetScenarios is the workload's directive list for a seed.
func fleetScenarios(jobs int, seed int64) []experiments.FleetScenario {
	rng := rand.New(rand.NewSource(seed))
	_, dsts := experiments.FleetVictims(experiments.FleetConfig{Jobs: jobs})
	victim := dsts[rng.Intn(jobs)] // the dc1 IB destinations come first
	scs := append(experiments.ExtFleetScenarios(2, ""), experiments.ExtFleetScenarios(2, fleet.SeqMaxFlow)...)
	return append(scs, experiments.FleetScenario{
		Placement: fleet.PlaceSwap, Seq: fleet.SeqPolicy{Batched: true, Cap: 4},
		ExtraFaults: &faults.Plan{Name: "ib-train-stall", Specs: []faults.Spec{{
			Kind: faults.KindTrainStall, Target: victim, For: 200 * sim.Second,
		}}},
	})
}

// fleetExpect is a row's expected outcome tally for a fleet of n jobs;
// the sequential rows miss their deadline by design.
func fleetExpect(sc experiments.FleetScenario, n int) (outcomes string, deadline bool) {
	switch {
	case sc.Faulted:
		return fmt.Sprintf("%d clean, 1 retried-ok", n-1), true
	case sc.ExtraFaults != nil:
		return fmt.Sprintf("%d clean, 1 degraded-to-tcp", n-1), true
	case sc.ReturnHome:
		return fmt.Sprintf("%d clean", 2*n), true
	case sc.Kind == fleet.Evacuate && !sc.Seq.Batched:
		return fmt.Sprintf("%d clean", n), false
	}
	return fmt.Sprintf("%d clean", n), true
}

func runFleet(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	jobs := fleetJobs(cfg)
	scs := fleetScenarios(jobs, cfg.seed)
	m, err := repeat(func(p *pass) error { return fleetPass(p, jobs, scs, cfg.small) }, cfg.budget, 3, tr)
	if err != nil {
		return nil, err
	}
	out := inProcessOutcome(cfg, m, tr)
	if err := fleetAnchor(out, m.ref, jobs, scs); err != nil {
		return nil, err
	}
	return out, nil
}

// fleetLine is the part of a directive's result that the benchmark's own
// plan-and-execute path must share with experiments.RunFleetScenario.
func fleetLine(r experiments.FleetRow) string {
	return fmt.Sprintf("%s pred=%d makespan=%d downtime=%d batches=%d deadline=%v replans=%d requeues=%d outcomes=%s",
		r.Scenario, r.Predicted, r.Makespan, r.Downtime, r.Batches, r.Deadline, r.Replans, r.Requeues, r.Outcomes)
}

// fleetAnchor runs every directive once more through
// experiments.RunFleetScenario, untimed, and fails the run unless each
// row matches the warm-up pass: the benchmark splits that function's
// steps to time them, and a change to it must not leave the benchmark
// timing a stale copy.
func fleetAnchor(out *outcome, ref *pass, jobs int, scs []experiments.FleetScenario) error {
	got := strings.Split(strings.TrimSuffix(ref.fp.String(), "\n"), "\n")
	for i, sc := range scs {
		res, err := experiments.RunFleetScenario(experiments.FleetConfig{Jobs: jobs}, sc)
		if err != nil {
			return fmt.Errorf("fleet anchor: %w", err)
		}
		row := res.Row
		if sc.Kind != fleet.RollingMaintenance {
			// RunFleetScenario counts drain mini-plan batches only for
			// rolling drains; other directives have none.
			for _, dr := range res.Report.Drains {
				row.Batches += dr.Batches
			}
		}
		if want := fleetLine(row); i >= len(got) || got[i] != want {
			out.errs = append(out.errs, fmt.Sprintf("fleet %s: benchmark row differs from experiments.RunFleetScenario %q", sc.Label(), want))
		}
	}
	return nil
}

// fleetPass runs every directive of the fleet workload once.
func fleetPass(p *pass, jobs int, scs []experiments.FleetScenario, small bool) error {
	var downtime, makespan, cost, absErr, pctErr float64
	evacs, failedJobs, jobOutcomes := 0, 0, 0
	for _, sc := range scs {
		t := time.Now()
		rep, plan, batches, err := p.fleetDirective(experiments.FleetConfig{Jobs: jobs}, sc)
		if err != nil {
			return err
		}
		downtime += rep.Downtime.Seconds()
		makespan += rep.Makespan.Seconds()
		failed := false
		jobOutcomes += len(rep.Jobs)
		for _, jo := range rep.Jobs {
			cost += frozenCost(len(jo.Dsts), jo.Job.IBCapable, jo.Report.Total)
			if jo.Outcome != ninja.OutcomeClean && jo.Outcome != ninja.OutcomeRetriedOK {
				failedJobs++
				failed = true
			}
			p.ninjaReport(jo.Report)
			if p.layer != nil && jo.Attempts > 1 {
				p.add("ninja.rollbacks", float64(jo.Attempts-1))
			}
		}
		if sc.Kind == fleet.Evacuate {
			e := math.Abs(plan.Seq.Predicted.Seconds() - rep.Makespan.Seconds())
			absErr += e
			pctErr += 100 * e / rep.Makespan.Seconds()
			evacs++
		}
		wantOut, wantDeadline := fleetExpect(sc, jobs)
		p.checkf(rep.OutcomeCounts() == wantOut, "fleet %s: outcomes %q, want %q", sc.Label(), rep.OutcomeCounts(), wantOut)
		p.checkf(small || rep.DeadlineMet == wantDeadline, "fleet %s: deadline met %v, want %v", sc.Label(), rep.DeadlineMet, wantDeadline)
		p.add("fleet.replans", float64(rep.Replans))
		p.add("fleet.requeues", float64(rep.Requeues))
		if !rep.DeadlineMet {
			p.add("fleet.deadline_misses", 1)
		}
		p.add("fleet.batches", float64(batches))
		p.ops = append(p.ops, op{name: sc.Label(), host: time.Since(t), failed: failed})
		p.record("%s", fleetLine(experiments.FleetRow{
			Scenario: sc.Label(), Predicted: plan.Seq.Predicted, Makespan: rep.Makespan, Downtime: rep.Downtime,
			Batches: batches, Deadline: rep.DeadlineMet, Replans: rep.Replans, Requeues: rep.Requeues, Outcomes: rep.OutcomeCounts(),
		}))
	}
	p.add("fleet.pred_err_pct", pctErr/float64(evacs))
	p.sim["sim_downtime_s"] = downtime
	p.sim["sim_makespan_s"] = makespan
	p.sim["model_err_s"] = absErr / float64(evacs)
	p.sim["sim_cost"] = cost
	p.sim["failed_frac"] = fraction(failedJobs, jobOutcomes)
	p.attempted = jobOutcomes
	return nil
}

// fleetDirective deploys a fresh fleet (set-up), plans the directive with
// fleet.Planner, and executes it with fleet.Executor on the shared kernel
// — the same steps as experiments.RunFleetScenario, split so each layer
// is timed on its own. It returns the report, the plan and the batches
// run (a rolling drain plans and counts them per mini-plan).
func (p *pass) fleetDirective(cfg experiments.FleetConfig, sc experiments.FleetScenario) (fleet.Report, *fleet.Plan, int, error) {
	var d *experiments.FleetDeployment
	if _, err := p.deploy("experiments.DeployFleet", func() error {
		var err error
		d, err = experiments.DeployFleet(cfg)
		return err
	}); err != nil {
		return fleet.Report{}, nil, 0, err
	}
	defer d.K.Close()
	trigger := d.Epoch + 5*sim.Second
	deadline := trigger + 400*sim.Second
	switch {
	case sc.Kind == fleet.RollingMaintenance:
		deadline = trigger + 1200*sim.Second
	case sc.ReturnHome:
		deadline = trigger + 800*sim.Second
	}
	dir := fleet.Directive{Kind: sc.Kind, Source: d.Source, Deadline: deadline, MaxInFlight: sc.MaxInFlight, ReturnHome: sc.ReturnHome}
	model := fleet.CostModel{RDMANative: sc.Mode == ninja.RDMANative}
	planner := &fleet.Planner{Topo: d.Topo, Placement: sc.Placement, Seq: sc.Seq, Model: model}

	sp := p.begin("fleet.Planner.Plan", p.root)
	t := time.Now()
	plan, err := planner.Plan(dir, d.Jobs)
	p.add("fleet.plan_host_s", time.Since(t).Seconds())
	p.end(sp)
	if err != nil {
		return fleet.Report{}, nil, 0, fmt.Errorf("fleet %s: plan: %w", sc.Label(), err)
	}

	ex := fleet.NewExecutor(d.K, plan, fleet.Options{Topo: d.Topo, Placement: sc.Placement, Replan: true, Mode: sc.Mode, Model: model})
	logf := func(kind, subject, detail string) {
		ex.Events().Record(metrics.EventFaultInjected, kind, subject, detail)
	}
	// Fault arming mirrors experiments.RunFleetScenarioWith step for step;
	// fleetAnchor checks that both still produce the same rows.
	if sc.Faulted && len(plan.Seq.Batches) > 0 {
		last := plan.Seq.Batches[len(plan.Seq.Batches)-1]
		victim := last[0].Dsts[0]
		inj := faults.NewInjector(d.K, faults.Plan{
			Name: "fleet-dst-crash", Seed: 1,
			Specs: []faults.Spec{{
				Kind: faults.KindNodeCrash, Target: victim.Name, At: trigger + 5*sim.Second,
			}},
		}, faults.Env{Nodes: []*hw.Node{victim}, Log: logf})
		if err := inj.Arm(); err != nil {
			return fleet.Report{}, nil, 0, err
		}
	}
	if sc.ReturnHome {
		var specs []faults.Spec
		for _, n := range d.Source.Nodes {
			specs = append(specs, faults.Spec{
				Kind: faults.KindNodeCrash, Target: n.Name,
				At: trigger - 2*sim.Second, For: 300 * sim.Second,
			})
		}
		inj := faults.NewInjector(d.K, faults.Plan{
			Name: "fleet-site-outage", Seed: 1, Specs: specs,
		}, faults.Env{Nodes: d.Source.Nodes, Log: logf})
		if err := inj.Arm(); err != nil {
			return fleet.Report{}, nil, 0, err
		}
	}
	if sc.ExtraFaults != nil {
		fp := faults.Plan{Name: sc.ExtraFaults.Name, Seed: sc.ExtraFaults.Seed}
		for _, s := range sc.ExtraFaults.Specs {
			s.At += trigger
			fp.Specs = append(fp.Specs, s)
		}
		var nodes []*hw.Node
		for _, s := range d.Topo.Sites {
			nodes = append(nodes, s.Nodes...)
		}
		nodes = append(nodes, d.SpareNodes...)
		inj := faults.NewInjector(d.K, fp, faults.Env{
			VMs: d.VMs(), Nodes: nodes, Store: d.NFS, Log: logf,
		})
		if err := inj.Arm(); err != nil {
			return fleet.Report{}, nil, 0, err
		}
	}
	if sc.ForcedRollback {
		pol := ninja.DefaultRetryPolicy()
		inj := faults.NewInjector(d.K, faults.Plan{
			Name: "fleet-forced-rollback", Seed: 1,
			Specs: []faults.Spec{{
				Kind: faults.KindMigrateAbort, Target: "j00v00",
				At: trigger, Pass: 1, Count: pol.MaxAttempts,
			}},
		}, faults.Env{VMs: d.VMs(), Log: logf})
		if err := inj.Arm(); err != nil {
			return fleet.Report{}, nil, 0, err
		}
	}

	var fut *sim.Future[fleet.Report]
	var startErr error
	d.K.Go("fleet-driver", func(pr *sim.Proc) {
		if trigger > pr.Now() {
			pr.Sleep(trigger - pr.Now())
		}
		fut, startErr = ex.Start()
	})
	t = time.Now()
	p.kernel(d.K, "fleet.Executor.Run", func() { d.K.Run() })
	p.add("fleet.execute_host_s", time.Since(t).Seconds())
	if startErr != nil {
		return fleet.Report{}, nil, 0, fmt.Errorf("fleet %s: start: %w", sc.Label(), startErr)
	}
	if fut == nil || !fut.Done() {
		return fleet.Report{}, nil, 0, fmt.Errorf("fleet %s: directive incomplete", sc.Label())
	}
	rep := fut.Value()
	for i, app := range d.Apps {
		p.checkf(app.Done(), "fleet %s: job %d wedged", sc.Label(), i)
	}
	if failed := rep.Failed(); len(failed) > 0 {
		return fleet.Report{}, nil, 0, fmt.Errorf("fleet %s: job %s failed: %v", sc.Label(), failed[0].Job.Name, failed[0].Err)
	}
	batches := len(plan.Seq.Batches)
	for _, dr := range rep.Drains {
		batches += dr.Batches
	}
	return rep, plan, batches, nil
}
