package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/metrics"
	"repro/internal/ninja"
)

// The acceptance property of the fleet control plane: on the default
// 8-job evacuation, swap-refined placement with batched gang execution
// beats sequential greedy on makespan, and places strictly better by
// affinity score.
func TestFleetBatchedSwapBeatsSequentialGreedy(t *testing.T) {
	base, err := RunFleetScenario(FleetConfig{}, FleetScenario{
		Placement: fleet.PlaceGreedy, Seq: fleet.SeqPolicy{},
	})
	if err != nil {
		t.Fatal(err)
	}
	tuned, err := RunFleetScenario(FleetConfig{}, FleetScenario{
		Placement: fleet.PlaceSwap, Seq: fleet.SeqPolicy{Batched: true, Cap: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Row.Makespan >= base.Row.Makespan {
		t.Fatalf("batched+swap makespan %v not strictly below sequential greedy %v",
			tuned.Row.Makespan, base.Row.Makespan)
	}
	if tuned.Row.Score <= base.Row.Score {
		t.Fatalf("swap score %d not above greedy %d", tuned.Row.Score, base.Row.Score)
	}
	if tuned.Row.IBJobsOnIB != tuned.Row.IBJobs {
		t.Fatalf("swap left %d/%d IB jobs off InfiniBand",
			tuned.Row.IBJobs-tuned.Row.IBJobsOnIB, tuned.Row.IBJobs)
	}
	if base.Row.IBJobsOnIB >= base.Row.IBJobs {
		t.Fatal("greedy placed every IB job on IB — the testbed no longer distinguishes the policies")
	}
	for _, res := range []*FleetResult{base, tuned} {
		if !res.Report.DeadlineMet {
			t.Fatalf("%s missed the deadline", res.Row.Scenario)
		}
		for _, jo := range res.Report.Jobs {
			if jo.Outcome != ninja.OutcomeClean {
				t.Fatalf("%s: job %s ended %s", res.Row.Scenario, jo.Job.Name, jo.Outcome)
			}
		}
	}
}

// Same deployment, same policies → bit-identical plan and timings.
func TestFleetDeterministic(t *testing.T) {
	sc := FleetScenario{Placement: fleet.PlaceSwap, Seq: fleet.SeqPolicy{Batched: true, Cap: 4}}
	cfg := FleetConfig{Jobs: 4}
	a, err := RunFleetScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunFleetScenario(cfg, sc)
	if err != nil {
		t.Fatal(err)
	}
	if a.Row.Makespan != b.Row.Makespan || a.Row.Downtime != b.Row.Downtime ||
		a.Row.Score != b.Row.Score || a.Row.Batches != b.Row.Batches {
		t.Fatalf("reruns differ:\n%+v\n%+v", a.Row, b.Row)
	}
	for i := range a.Plan.Assignments {
		for v, n := range a.Plan.Assignments[i].Dsts {
			if n.Name != b.Plan.Assignments[i].Dsts[v].Name {
				t.Fatalf("assignment %d VM %d differs: %s vs %s",
					i, v, n.Name, b.Plan.Assignments[i].Dsts[v].Name)
			}
		}
	}
}

// A destination-node crash mid-directive forces the control plane to
// replan the victim's migration before its batch launches; every job
// still completes healthy.
func TestFleetReplansAfterDestinationCrash(t *testing.T) {
	res, err := RunFleetScenario(FleetConfig{}, FleetScenario{
		Placement: fleet.PlaceSwap, Seq: fleet.SeqPolicy{Batched: true, Cap: 4}, Faulted: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Replans < 1 {
		t.Fatal("destination crash did not trigger a replan")
	}
	replanEvents := 0
	for _, e := range res.Report.Events {
		if e.Kind == metrics.EventReplan {
			replanEvents++
		}
	}
	if replanEvents < 1 {
		t.Fatal("no replanned event in the fleet trail")
	}
	recovered := 0
	for _, jo := range res.Report.Jobs {
		switch jo.Outcome {
		case ninja.OutcomeClean:
		case ninja.OutcomeRetriedOK, ninja.OutcomeDegradedTCP, ninja.OutcomeRolledBack:
			recovered++
		default:
			t.Fatalf("job %s ended %q", jo.Job.Name, jo.Outcome)
		}
		if jo.Replanned {
			for _, n := range jo.Dsts {
				if n.Failed() {
					t.Fatalf("job %s replanned onto failed node %s", jo.Job.Name, n.Name)
				}
			}
		}
	}
	if recovered < 1 {
		t.Fatal("no job shows a recovery outcome despite the forced replan")
	}
	if !res.Report.DeadlineMet {
		t.Fatal("faulted run missed the deadline")
	}
}

// The matrix itself: seven rows, stable labels, no failures at a small
// fleet size (the full size runs in the dedicated tests above).
func TestExtFleetMatrixShape(t *testing.T) {
	rows, err := ExtFleetMatrix(context.Background(), FleetConfig{Jobs: 3}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(ExtFleetScenarios(2, "")) {
		t.Fatalf("%d rows, want %d", len(rows), len(ExtFleetScenarios(2, "")))
	}
	tab := ExtFleetRender(rows)
	if len(tab.Rows) != len(rows) {
		t.Fatalf("table has %d rows", len(tab.Rows))
	}
	if !strings.Contains(tab.Rows[0][0], "greedy/sequential") {
		t.Fatalf("row 0 label = %q", tab.Rows[0][0])
	}
	for _, r := range rows {
		if r.Jobs != 3 {
			t.Fatalf("row %s has %d jobs", r.Scenario, r.Jobs)
		}
	}
}

// A rolling drain of dc0 must empty every source node in turn, never
// exceeding the configured jobs-in-flight cap in any mini-plan, and
// leave every job healthy. Placement may legally refill already-
// maintained nodes (the caterpillar pattern — that is what lets a drain
// proceed with one node's headroom), so the guarantee is per-drain:
// the node under maintenance is empty when its mini-plan completes.
func TestRollingMaintenanceDrainsEveryNode(t *testing.T) {
	res, err := RunFleetScenario(FleetConfig{Jobs: 4}, FleetScenario{
		Kind: fleet.RollingMaintenance, Placement: fleet.PlaceSwap, MaxInFlight: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	srcNodes := res.Plan.Dir.Source.Nodes
	if len(rep.Drains) != len(srcNodes) {
		t.Fatalf("%d drain records, want one per source node (%d)",
			len(rep.Drains), len(srcNodes))
	}
	for i, dr := range rep.Drains {
		if dr.Node != srcNodes[i].Name {
			t.Fatalf("drain %d covered %s, want %s in site order", i, dr.Node, srcNodes[i].Name)
		}
		if dr.Left != 0 {
			t.Fatalf("node %s still hosts %d VM(s) after its drain", dr.Node, dr.Left)
		}
		if dr.MaxInFlight > 2 {
			t.Fatalf("node %s ran %d jobs in flight, cap is 2", dr.Node, dr.MaxInFlight)
		}
	}
	drainEvents := 0
	for _, e := range rep.Events {
		if e.Kind == metrics.EventDrain {
			drainEvents++
		}
	}
	if drainEvents < len(srcNodes) {
		t.Fatalf("%d drain events, want at least %d", drainEvents, len(srcNodes))
	}
	if !rep.DeadlineMet {
		t.Fatal("rolling drain missed the deadline")
	}
	// Any VM still on dc0 must sit on a node whose drain already completed
	// empty — verified above via Left — never on one awaiting its turn.
	// The last node in site order can therefore never be refilled.
	last := srcNodes[len(srcNodes)-1]
	for _, j := range res.Plan.Jobs {
		for _, vm := range j.VMs() {
			if vm.Node() == last {
				t.Fatalf("VM %s on %s, the final drain target", vm.Name(), last.Name)
			}
		}
	}
	for _, jo := range rep.Jobs {
		if jo.Outcome != ninja.OutcomeClean {
			t.Fatalf("job %s ended %s in a fault-free drain", jo.Job.Name, jo.Outcome)
		}
	}
}

// Forcing job00's migration to roll back in place during its drain must
// make the executor re-queue it; the job ends healthy and its drained
// node still comes up empty.
func TestRollingRequeueAfterForcedRollback(t *testing.T) {
	res, err := RunFleetScenario(FleetConfig{Jobs: 4}, FleetScenario{
		Kind: fleet.RollingMaintenance, Placement: fleet.PlaceSwap,
		MaxInFlight: 2, ForcedRollback: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Requeues < 1 {
		t.Fatal("forced rollback-in-place was not re-queued")
	}
	requeueEvents := 0
	for _, e := range rep.Events {
		if e.Kind == metrics.EventRequeue {
			requeueEvents++
		}
	}
	if requeueEvents < 1 {
		t.Fatal("no requeue event in the fleet trail")
	}
	for _, dr := range rep.Drains {
		if dr.Left != 0 {
			t.Fatalf("node %s still hosts %d VM(s) after its drain", dr.Node, dr.Left)
		}
	}
	// The rollback hits job00 while its boot node (first in site order) is
	// draining: that mini-plan's outcome must show the re-queued second
	// attempt succeeding, and the node must still come up empty (Left
	// above) — the job ended off the drained node despite the rollback.
	firstDrain := "drain:" + res.Plan.Dir.Source.Nodes[0].Name
	seen := false
	for _, jo := range rep.Jobs {
		if jo.Job.Name != "job00" || jo.Leg != firstDrain {
			continue
		}
		seen = true
		if jo.Outcome != ninja.OutcomeRetriedOK {
			t.Fatalf("job00 ended %s, want %s after the re-queue", jo.Outcome, ninja.OutcomeRetriedOK)
		}
		if jo.Attempts < 2 {
			t.Fatalf("job00 recorded %d fleet attempt(s), want the re-queued second", jo.Attempts)
		}
	}
	if !seen {
		t.Fatalf("no outcome recorded for job00 on leg %q", firstDrain)
	}
	if !rep.DeadlineMet {
		t.Fatal("re-queued drain missed the deadline")
	}
}

// A bidirectional evacuation through a site outage: the fleet leaves the
// failed site, waits for the restore, and migrates every VM back to the
// exact node it booted on, recording one outcome per job per leg.
func TestFleetEvacuateReturnHome(t *testing.T) {
	cfg := FleetConfig{Jobs: 4}
	res, err := RunFleetScenario(cfg, FleetScenario{
		Placement: fleet.PlaceSwap, Seq: fleet.SeqPolicy{Batched: true, Cap: 4},
		ReturnHome: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if !rep.DeadlineMet {
		t.Fatal("bidirectional evacuation missed the deadline")
	}
	returnEvents := 0
	for _, e := range rep.Events {
		if e.Kind == metrics.EventReturnHome {
			returnEvents++
		}
	}
	if returnEvents < 1 {
		t.Fatal("no return-home event in the fleet trail")
	}
	// DeployFleet boots VM j*VMsPerJob+v of job j on that same index of
	// dc0's node list; a complete round trip puts each one back there.
	srcNodes := res.Plan.Dir.Source.Nodes
	for j, job := range res.Plan.Jobs {
		for v, vm := range job.VMs() {
			want := srcNodes[j*2+v]
			if vm.Node() != want {
				t.Fatalf("VM %s ended on %s, want home node %s",
					vm.Name(), vm.Node().Name, want.Name)
			}
		}
	}
	legs := map[string]int{}
	for _, jo := range rep.Jobs {
		legs[jo.Leg]++
	}
	if legs[""] != cfg.Jobs || legs["return"] != cfg.Jobs {
		t.Fatalf("leg outcomes = %v, want %d evacuation + %d return", legs, cfg.Jobs, cfg.Jobs)
	}
}

// Directive validation: an evacuate directive without a source site and a
// consolidation that cannot fit must fail loudly at plan time.
func TestFleetPlannerRejectsImpossibleDirectives(t *testing.T) {
	d, err := DeployFleet(FleetConfig{Jobs: 2})
	if err != nil {
		t.Fatal(err)
	}
	pl := &fleet.Planner{Topo: d.Topo, Placement: fleet.PlaceSwap}
	if _, err := pl.Plan(fleet.Directive{Kind: fleet.Evacuate}, d.Jobs); err == nil {
		t.Fatal("evacuate without a source site planned successfully")
	}
	// Consolidating 4 VMs onto 1 single-slot node cannot fit.
	_, err = pl.Plan(fleet.Directive{
		Kind: fleet.Consolidate, Source: d.Source, MaxNodes: 1,
	}, d.Jobs)
	if err == nil {
		t.Fatal("impossible consolidation planned successfully")
	}
}
