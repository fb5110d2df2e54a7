package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/churn"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/jobs"
	"repro/internal/metrics"
	"repro/internal/ninja"
	"repro/internal/simfarm"
)

// DirectiveSpec is the wire form of a fleet directive: the JSON body of
// POST /jobs. It maps onto experiments.RunFleetScenarioWith, which deploys
// a fresh three-site simulated fleet and runs the directive over it — a
// pure function of this spec, which is what makes re-executing an
// interrupted job after a crash converge on the identical report.
type DirectiveSpec struct {
	// Kind is "evacuate" (default), "rolling-maintenance", "sweep" — a
	// Monte Carlo fault sweep over a simfarm matrix, sized by
	// jobs/seeds/seed_base/parallelism and shaped by matrix/fault_plans
	// below — or "churn", the continuous online-placement workload of
	// internal/churn under one policy. "consolidate" is rejected: the
	// ninjad testbed boots one VM per source node, so there is no packing
	// headroom to consolidate into.
	Kind string `json:"kind,omitempty"`
	// Placement is "greedy" (default) or "swap". For kind "churn" it
	// selects the online policy: greedy first-fit or adaptive
	// destination-swap.
	Placement string `json:"placement,omitempty"`
	// Batched enables concurrent gang execution; Cap bounds concurrent
	// migrations per batch (0 = unlimited).
	Batched bool `json:"batched,omitempty"`
	Cap     int  `json:"cap,omitempty"`
	// Seq selects the sequencing algorithm: "lpt" (default) or "maxflow"
	// (time-expanded max-flow rounds). For kind "churn" it sequences the
	// engine's mini-plans; not valid for kind "sweep" (the matrix carries
	// its own policies).
	Seq string `json:"seq,omitempty"`
	// Mode selects the transfer mechanism for evacuate/rolling-maintenance
	// directives: "live" (default), "rdma" (RDMA-native QP checkpoint/
	// replay — IB-capable jobs skip hotplug and link training, demoting
	// per VM to the hotplug rung on replay faults), or "cold"
	// (checkpoint/restart through the shared store).
	Mode string `json:"mode,omitempty"`
	// MaxInFlight caps jobs migrating concurrently per rolling-maintenance
	// mini-plan.
	MaxInFlight int `json:"max_in_flight,omitempty"`
	// ReturnHome makes an evacuation bidirectional (site outage + return).
	ReturnHome bool `json:"return_home,omitempty"`
	// Faulted crashes a planned destination mid-directive; ForcedRollback
	// forces job00 into a rollback-in-place re-queue.
	Faulted        bool `json:"faulted,omitempty"`
	ForcedRollback bool `json:"forced_rollback,omitempty"`
	// Jobs / VMsPerJob size the fleet (defaults 8 × 2; for a sweep, Jobs
	// sizes each cell's fleet and defaults to 4).
	Jobs      int `json:"jobs,omitempty"`
	VMsPerJob int `json:"vms_per_job,omitempty"`
	// Seeds / SeedBase / Parallelism apply to kind "sweep" only: seeds per
	// matrix row (0 = 16), first seed (0 = 1), and worker count (0 =
	// GOMAXPROCS). Parallelism affects wall-clock only — the committed
	// result is byte-identical at any worker count, which is what lets a
	// crashed sweep job re-execute and converge on the identical record.
	Seeds       int   `json:"seeds,omitempty"`
	SeedBase    int64 `json:"seed_base,omitempty"`
	Parallelism int   `json:"parallelism,omitempty"`
	// Matrix selects the sweep matrix (kind "sweep" only): "default" (the
	// evacuation directive × fault-plan matrix) or "churn" (online
	// placement policies × node-crash).
	Matrix string `json:"matrix,omitempty"`
	// FaultPlans restricts the sweep's fault axis to the named plans
	// (kind "sweep" only; empty keeps the matrix's full axis). Unknown
	// names are rejected with the matrix's plan list.
	FaultPlans []string `json:"fault_plans,omitempty"`
	// Seed seeds a churn run's arrival workload (kind "churn" only; 0 is
	// a valid, fixed seed).
	Seed int64 `json:"seed,omitempty"`
}

// parseSpec decodes and validates a directive body. Unknown fields are
// rejected so a typo ("placment") cannot silently run the default fleet,
// and so is anything but exactly one JSON object: a null directive or
// trailing data must not run the default fleet either.
func parseSpec(raw json.RawMessage) (DirectiveSpec, error) {
	var spec DirectiveSpec
	if b := bytes.TrimSpace(raw); len(b) == 0 || b[0] != '{' {
		return spec, fmt.Errorf("directive: must be a JSON object")
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return spec, fmt.Errorf("directive: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return spec, fmt.Errorf("directive: trailing data after the JSON object")
	}
	switch spec.Kind {
	case "", "evacuate", "rolling-maintenance":
		if spec.Seeds != 0 || spec.SeedBase != 0 || spec.Parallelism != 0 ||
			spec.Matrix != "" || spec.FaultPlans != nil {
			return spec, fmt.Errorf("directive: seeds/seed_base/parallelism/matrix/fault_plans apply to kind \"sweep\" only")
		}
		if spec.Seed != 0 {
			return spec, fmt.Errorf("directive: seed applies to kind \"churn\" only")
		}
	case "sweep":
		if spec.Mode != "" {
			return spec, fmt.Errorf("directive: mode applies to evacuate/rolling-maintenance only")
		}
		if spec.Placement != "" || spec.Batched || spec.Cap != 0 || spec.Seq != "" || spec.MaxInFlight != 0 ||
			spec.ReturnHome || spec.Faulted || spec.ForcedRollback || spec.VMsPerJob != 0 || spec.Seed != 0 {
			return spec, fmt.Errorf("directive: a sweep runs a directive × fault-plan matrix; only jobs, seeds, seed_base, parallelism, matrix and fault_plans apply")
		}
		if spec.Seeds < 0 || spec.SeedBase < 0 || spec.Parallelism < 0 {
			return spec, fmt.Errorf("directive: negative counts are not valid")
		}
		switch spec.Matrix {
		case "", "default", "churn":
		default:
			return spec, fmt.Errorf("directive: unknown matrix %q (want default or churn)", spec.Matrix)
		}
		if _, err := spec.sweepMatrix(); err != nil {
			return spec, fmt.Errorf("directive: %w", err)
		}
	case "churn":
		if spec.Mode != "" {
			return spec, fmt.Errorf("directive: mode applies to evacuate/rolling-maintenance only")
		}
		if spec.Batched || spec.Cap != 0 || spec.MaxInFlight != 0 || spec.ReturnHome ||
			spec.ForcedRollback || spec.VMsPerJob != 0 || spec.Seeds != 0 || spec.SeedBase != 0 ||
			spec.Parallelism != 0 || spec.Matrix != "" || spec.FaultPlans != nil {
			return spec, fmt.Errorf("directive: a churn run takes only placement, seq, jobs, seed and faulted")
		}
		if spec.Seed < 0 {
			return spec, fmt.Errorf("directive: negative counts are not valid")
		}
	case "consolidate":
		return spec, fmt.Errorf("directive: kind %q not supported: the ninjad testbed has no packing headroom (one VM per source node)", spec.Kind)
	default:
		return spec, fmt.Errorf("directive: unknown kind %q (want evacuate, rolling-maintenance, sweep or churn)", spec.Kind)
	}
	switch spec.Placement {
	case "", "greedy", "swap":
	default:
		return spec, fmt.Errorf("directive: unknown placement %q (want greedy or swap)", spec.Placement)
	}
	switch spec.Seq {
	case "", fleet.SeqLPT, fleet.SeqMaxFlow:
	default:
		return spec, fmt.Errorf("directive: unknown seq %q (want %s or %s)", spec.Seq, fleet.SeqLPT, fleet.SeqMaxFlow)
	}
	switch spec.Mode {
	case "", "live", "rdma", "cold":
	default:
		return spec, fmt.Errorf("directive: unknown mode %q (want live, rdma or cold)", spec.Mode)
	}
	if spec.MaxInFlight < 0 || spec.Cap < 0 || spec.Jobs < 0 || spec.VMsPerJob < 0 {
		return spec, fmt.Errorf("directive: negative counts are not valid")
	}
	if spec.Kind == "rolling-maintenance" && spec.ReturnHome {
		return spec, fmt.Errorf("directive: return_home applies to evacuations only")
	}
	return spec, nil
}

// scenario maps a validated spec onto the experiment types.
func (spec DirectiveSpec) scenario() (experiments.FleetConfig, experiments.FleetScenario) {
	cfg := experiments.FleetConfig{Jobs: spec.Jobs, VMsPerJob: spec.VMsPerJob}
	sc := experiments.FleetScenario{
		Seq:            fleet.SeqPolicy{Batched: spec.Batched, Cap: spec.Cap, Mode: spec.Seq},
		MaxInFlight:    spec.MaxInFlight,
		ReturnHome:     spec.ReturnHome,
		Faulted:        spec.Faulted,
		ForcedRollback: spec.ForcedRollback,
	}
	if spec.Kind == "rolling-maintenance" {
		sc.Kind = fleet.RollingMaintenance
		if sc.MaxInFlight <= 0 {
			sc.MaxInFlight = 2
		}
	}
	if spec.Placement == "swap" {
		sc.Placement = fleet.PlaceSwap
	}
	switch spec.Mode {
	case "rdma":
		sc.Mode = ninja.RDMANative
	case "cold":
		sc.Mode = ninja.Cold
	}
	return cfg, sc
}

// jobResult is the deterministic result committed into the job record:
// simulated-clock quantities only, no wall-clock timestamps, so an
// interrupted-and-re-executed directive produces byte-identical bytes.
type jobResult struct {
	Scenario    string        `json:"scenario"`
	Jobs        int           `json:"jobs"`
	Batches     int           `json:"batches"`
	Score       int           `json:"score"`
	IBJobsOnIB  int           `json:"ib_jobs_on_ib"`
	IBJobs      int           `json:"ib_jobs"`
	PredictedS  float64       `json:"predicted_s"`
	MakespanS   float64       `json:"makespan_s"`
	DowntimeS   float64       `json:"downtime_s"`
	DeadlineMet bool          `json:"deadline_met"`
	Replans     int           `json:"replans"`
	Requeues    int           `json:"requeues"`
	Outcomes    string        `json:"outcomes"`
	PerJob      []jobOutcomeJ `json:"per_job"`
}

type jobOutcomeJ struct {
	Job       string   `json:"job"`
	Dsts      []string `json:"dsts"`
	Outcome   string   `json:"outcome"`
	DowntimeS float64  `json:"downtime_s"`
	Attempts  int      `json:"attempts"`
	Replanned bool     `json:"replanned,omitempty"`
	Leg       string   `json:"leg,omitempty"`
}

// runDirective is the jobs.Handler behind ninjad: it re-parses the stored
// directive (the record is the source of truth, not whatever was in
// memory before a crash), runs the fleet scenario with the executor trail
// streamed into the job's event log, and returns the deterministic
// result. The simulation itself is not interruptible mid-run; ctx is
// honored at the start boundary so a drain doesn't launch new work.
func runDirective(ctx context.Context, rec jobs.Record, emit func(jobs.Event)) (json.RawMessage, error) {
	spec, err := parseSpec(rec.Directive)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if spec.Kind == "sweep" {
		return runSweepDirective(ctx, spec, emit)
	}
	if spec.Kind == "churn" {
		return runChurnDirective(spec, emit)
	}
	cfg, sc := spec.scenario()
	res, err := experiments.RunFleetScenarioWith(cfg, sc, func(ev metrics.Event) {
		emit(jobs.Event{
			Kind:    string(ev.Kind),
			Phase:   ev.Phase,
			Subject: ev.Subject,
			Detail:  ev.Detail,
			Sim:     ev.At.Seconds(),
		})
	})
	if err != nil {
		return nil, err
	}

	out := jobResult{
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
		oj := jobOutcomeJ{
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

// sweepMatrix builds a sweep spec's matrix: the selected base matrix
// with the fault axis restricted to any named plans. Unknown plan names
// surface as a wrapped *simfarm.OptionsError — parseSpec calls this too,
// so a typo'd plan name is refused at submit time, not at run time.
func (spec DirectiveSpec) sweepMatrix() (simfarm.Matrix, error) {
	var m simfarm.Matrix
	if spec.Matrix == "churn" {
		m = simfarm.ChurnMatrix(spec.Jobs, spec.Seeds)
	} else {
		m = simfarm.DefaultMatrix(spec.Jobs, spec.Seeds)
	}
	return m.SelectPlans(spec.FaultPlans...)
}

// runChurnDirective runs the online churn workload as a durable job:
// the seeded arrival/departure process under one placement policy,
// optionally through the default node-crash plan, with every engine
// decision streamed into the job's event log. The committed result is
// the churn Report — simulated-clock quantities only, so an interrupted
// job re-executes to byte-identical bytes.
func runChurnDirective(spec DirectiveSpec, emit func(jobs.Event)) (json.RawMessage, error) {
	cfg := experiments.ChurnConfig{}
	cfg.Workload.Jobs = spec.Jobs
	cfg.Workload.Seed = spec.Seed
	sc := experiments.ChurnScenario{}
	if spec.Placement == "swap" {
		sc.Policy = churn.PolicySwap
	}
	if spec.Seq == fleet.SeqMaxFlow {
		sc.Seq = fleet.SeqPolicy{Batched: true, Mode: fleet.SeqMaxFlow}
	}
	if spec.Faulted {
		sc.Faults = experiments.ChurnCrashPlan()
	}
	res, err := experiments.RunChurnScenarioWith(cfg, sc, func(format string, args ...any) {
		emit(jobs.Event{Kind: "churn-log", Detail: fmt.Sprintf(format, args...)})
	})
	if err != nil {
		return nil, err
	}
	return json.RawMessage(res.Report.JSON()), nil
}

// runSweepDirective runs a durable Monte Carlo sweep job: a simfarm
// matrix — the default evacuation matrix or the churn placement matrix —
// sized by the spec, optionally restricted to named fault plans, with
// per-cell progress streamed into the job's event log and only the
// deterministic Summary committed as the result (wall-clock stats stay
// out, preserving the crash-re-execution byte-identity guarantee).
func runSweepDirective(ctx context.Context, spec DirectiveSpec, emit func(jobs.Event)) (json.RawMessage, error) {
	m, err := spec.sweepMatrix()
	if err != nil {
		return nil, err
	}
	m.Seeds.Base = spec.SeedBase
	f, err := simfarm.New(m, simfarm.Options{Parallelism: spec.Parallelism})
	if err != nil {
		return nil, err
	}
	f.Events().SetNotify(func(ev metrics.Event) {
		emit(jobs.Event{
			Kind:    string(ev.Kind),
			Phase:   ev.Phase,
			Subject: ev.Subject,
			Detail:  ev.Detail,
			Sim:     ev.At.Seconds(),
		})
	})
	res, err := f.Run(ctx)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res.Summary)
}
