package scenario

import (
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/churn"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/simfarm"
)

// FleetResult is the result of an evacuation or a rolling drain:
// simulated-clock quantities only, so a re-run returns the same bytes.
type FleetResult struct {
	Scenario    string       `json:"scenario"`
	Jobs        int          `json:"jobs"`
	Batches     int          `json:"batches"`
	Score       int          `json:"score"`
	IBJobsOnIB  int          `json:"ib_jobs_on_ib"`
	IBJobs      int          `json:"ib_jobs"`
	PredictedS  float64      `json:"predicted_s"`
	MakespanS   float64      `json:"makespan_s"`
	DowntimeS   float64      `json:"downtime_s"`
	DeadlineMet bool         `json:"deadline_met"`
	Replans     int          `json:"replans"`
	Requeues    int          `json:"requeues"`
	Outcomes    string       `json:"outcomes"`
	PerJob      []JobOutcome `json:"per_job"`
}

// JobOutcome is one job's line of a FleetResult.
type JobOutcome struct {
	Job       string   `json:"job"`
	Dsts      []string `json:"dsts"`
	Outcome   string   `json:"outcome"`
	DowntimeS float64  `json:"downtime_s"`
	Attempts  int      `json:"attempts"`
	Replanned bool     `json:"replanned,omitempty"`
	Leg       string   `json:"leg,omitempty"`
}

// Run executes a Spec and returns its result: a FleetResult for evacuate
// and rolling-maintenance, the churn.Report for churn, the
// simfarm.Summary for sweep. emit (if non-nil) observes the run's event
// trail as it happens without changing the result; a churn run's engine
// log lines arrive as "churn-log" events with no simulated time. A
// simulation cannot be interrupted: ctx is checked before it starts, and
// a sweep stops launching cells once ctx is done.
func Run(ctx context.Context, s Spec, emit func(metrics.Event)) (json.RawMessage, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if emit == nil {
		emit = func(metrics.Event) {}
	}
	switch s.Kind {
	case KindChurn:
		return runChurn(s.Churn, emit)
	case KindSweep:
		return runSweep(ctx, s.Sweep, emit)
	}
	return runFleet(s.Kind, s.Fleet, emit)
}

// scenario maps a fleet body onto the experiment types.
func (f *Fleet) scenario(kind string) (experiments.FleetConfig, experiments.FleetScenario) {
	cfg := experiments.FleetConfig{Jobs: f.Jobs, VMsPerJob: f.VMsPerJob}
	sc := experiments.FleetScenario{
		Placement:      placements[f.Placement],
		Seq:            fleet.SeqPolicy{Batched: f.Batched, Cap: f.Cap, Mode: f.Seq},
		Mode:           modes[f.Mode],
		MaxInFlight:    f.MaxInFlight,
		ReturnHome:     f.ReturnHome,
		Faulted:        f.Faulted,
		ForcedRollback: f.ForcedRollback,
	}
	if kind == KindRolling {
		sc.Kind = fleet.RollingMaintenance
		if sc.MaxInFlight <= 0 {
			sc.MaxInFlight = 2
		}
	}
	return cfg, sc
}

// scenario maps a churn body onto the experiment types.
func (c *Churn) scenario() (experiments.ChurnConfig, experiments.ChurnScenario) {
	cfg := experiments.ChurnConfig{Workload: churn.Workload{Jobs: c.Jobs, Seed: c.Seed}}
	sc := experiments.ChurnScenario{Policy: policies[c.Placement]}
	if c.Seq == fleet.SeqMaxFlow {
		sc.Seq = fleet.SeqPolicy{Batched: true, Mode: fleet.SeqMaxFlow}
	}
	if c.Faulted {
		sc.Faults = experiments.ChurnCrashPlan()
	}
	return cfg, sc
}

func runFleet(kind string, f *Fleet, emit func(metrics.Event)) (json.RawMessage, error) {
	cfg, sc := f.scenario(kind)
	res, err := experiments.RunFleetScenarioWith(cfg, sc, emit)
	if err != nil {
		return nil, err
	}
	out := FleetResult{
		Scenario:    res.Row.Scenario,
		Jobs:        res.Row.Jobs,
		Batches:     res.Row.Batches,
		Score:       res.Row.Score,
		IBJobsOnIB:  res.Row.IBJobsOnIB,
		IBJobs:      res.Row.IBJobs,
		PredictedS:  res.Row.Predicted.Seconds(),
		MakespanS:   res.Row.Makespan.Seconds(),
		DowntimeS:   res.Row.Downtime.Seconds(),
		DeadlineMet: res.Row.Deadline,
		Replans:     res.Row.Replans,
		Requeues:    res.Row.Requeues,
		Outcomes:    res.Row.Outcomes,
	}
	for _, jo := range res.Report.Jobs {
		oj := JobOutcome{
			Job:       jo.Job.Name,
			Outcome:   string(jo.Outcome),
			DowntimeS: jo.Report.Total.Seconds(),
			Attempts:  jo.Attempts,
			Replanned: jo.Replanned,
			Leg:       jo.Leg,
		}
		for _, n := range jo.Dsts {
			oj.Dsts = append(oj.Dsts, n.Name)
		}
		out.PerJob = append(out.PerJob, oj)
	}
	return json.Marshal(out)
}

func runChurn(c *Churn, emit func(metrics.Event)) (json.RawMessage, error) {
	cfg, sc := c.scenario()
	res, err := experiments.RunChurnScenarioWith(cfg, sc, func(format string, args ...any) {
		emit(metrics.Event{Kind: "churn-log", Detail: fmt.Sprintf(format, args...)})
	})
	if err != nil {
		return nil, err
	}
	return json.RawMessage(res.Report.JSON()), nil
}

// directive makes a fleet or churn Spec one entry of a sweep's directive
// axis: a cell runs the Spec through the same mapping as Run, with the
// cell's fault plan armed over it. Fleet fault times are relative to the
// directive trigger. A churn cell's seed is its workload seed, so the
// replication axis sweeps workloads, not just fault draws; its fault
// times are absolute (a churn run has no trigger instant), and it has no
// VMs, so a VictimVM spec fails the cell.
func (s Spec) directive(name string) simfarm.Directive {
	if s.Churn != nil {
		cfg, sc := s.Churn.scenario()
		return simfarm.Directive{
			Name:     name,
			DstNodes: experiments.ChurnVictims(cfg),
			Run: func(seed int64, plan *faults.Plan) (simfarm.RunResult, error) {
				return churnCell(cfg, sc, seed, plan)
			},
		}
	}
	cfg, sc := s.Fleet.scenario(s.Kind)
	vms, dstNodes := experiments.FleetVictims(cfg)
	return simfarm.Directive{
		Name:     name,
		VMs:      vms,
		DstNodes: dstNodes,
		Run: func(_ int64, plan *faults.Plan) (simfarm.RunResult, error) {
			return fleetCell(cfg, sc, plan)
		},
	}
}

// fleetCell runs one sweep cell on a fresh fleet deployment.
func fleetCell(cfg experiments.FleetConfig, sc experiments.FleetScenario, plan *faults.Plan) (simfarm.RunResult, error) {
	sc.ExtraFaults = plan
	res, err := experiments.RunFleetScenario(cfg, sc)
	if err != nil {
		return simfarm.RunResult{}, err
	}
	out := simfarm.RunResult{
		MakespanS:    res.Row.Makespan.Seconds(),
		DowntimeS:    res.Row.Downtime.Seconds(),
		DeadlineMet:  res.Row.Deadline,
		Replans:      res.Row.Replans,
		Requeues:     res.Row.Requeues,
		FinishedSimS: res.Report.Finished.Seconds(),
		Outcomes:     map[string]int{},
	}
	for _, jo := range res.Report.Jobs {
		label := string(jo.Outcome)
		if label == "" {
			label = "unknown"
		}
		out.Outcomes[label]++
	}
	return out, nil
}

// churnCell runs one sweep cell of the churn workload seeded by seed. The
// makespan and downtime columns carry the run's span and total placement
// wait; replans and requeues its swap and fault migrations.
func churnCell(cfg experiments.ChurnConfig, sc experiments.ChurnScenario, seed int64, plan *faults.Plan) (simfarm.RunResult, error) {
	cfg.Workload.Seed = seed
	if plan != nil {
		sc.Faults = plan
	}
	res, err := experiments.RunChurnScenario(cfg, sc)
	if err != nil {
		return simfarm.RunResult{}, err
	}
	rep := res.Report
	out := simfarm.RunResult{
		MakespanS:    rep.Duration.Seconds(),
		DowntimeS:    rep.WaitTotal.Seconds(),
		DeadlineMet:  rep.Rejected == 0,
		Replans:      rep.SwapMigs,
		Requeues:     rep.FaultMigs,
		FinishedSimS: rep.Duration.Seconds(),
		Outcomes:     map[string]int{},
	}
	if rep.Departed > 0 {
		out.Outcomes["departed"] = rep.Departed
	}
	if rep.Rejected > 0 {
		out.Outcomes["rejected"] = rep.Rejected
	}
	return out, nil
}

func runSweep(ctx context.Context, w *Sweep, emit func(metrics.Event)) (json.RawMessage, error) {
	m, err := w.matrix()
	if err != nil {
		return nil, err
	}
	f, err := simfarm.New(m, simfarm.Options{Parallelism: w.Parallelism})
	if err != nil {
		return nil, err
	}
	f.Events().SetNotify(emit)
	res, err := f.Run(ctx)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res.Summary)
}
