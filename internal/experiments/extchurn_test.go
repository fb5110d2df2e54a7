package experiments

import (
	"context"
	"strings"
	"testing"

	"repro/internal/churn"
)

// The subsystem's acceptance claim: on the default scenario the
// adaptive destination-swap policy achieves strictly lower
// time-weighted affinity cost than the greedy baseline, paying with
// corrective migrations the baseline never makes.
func TestExtChurnSwapBeatsGreedy(t *testing.T) {
	greedy, err := RunChurnScenario(ChurnConfig{}, ChurnScenario{Policy: churn.PolicyGreedy})
	if err != nil {
		t.Fatalf("greedy: %v", err)
	}
	swap, err := RunChurnScenario(ChurnConfig{}, ChurnScenario{Policy: churn.PolicySwap})
	if err != nil {
		t.Fatalf("swap: %v", err)
	}
	if swap.Row.CostIntegral >= greedy.Row.CostIntegral {
		t.Fatalf("destination-swap cost %.0f not strictly below greedy %.0f",
			swap.Row.CostIntegral, greedy.Row.CostIntegral)
	}
	if swap.Row.SwapMigs == 0 || greedy.Row.SwapMigs != 0 {
		t.Fatalf("swap-migs: swap=%d (want >0), greedy=%d (want 0)",
			swap.Row.SwapMigs, greedy.Row.SwapMigs)
	}
}

// The full matrix runs, keeps its row order, the faulted rows actually
// evict and re-place gangs, and every row's books balance: each arrival
// is counted once, as placed or as rejected, crashes included.
func TestExtChurnMatrix(t *testing.T) {
	rows, err := ExtChurnMatrix(context.Background(), ChurnConfig{})
	if err != nil {
		t.Fatalf("ExtChurnMatrix: %v", err)
	}
	wantLabels := []string{
		"greedy", "destination-swap",
		"greedy+plan:node-crash", "destination-swap+plan:node-crash",
	}
	if len(rows) != len(wantLabels) {
		t.Fatalf("%d rows, want %d", len(rows), len(wantLabels))
	}
	for i, r := range rows {
		if r.Scenario != wantLabels[i] {
			t.Errorf("row %d label %q, want %q", i, r.Scenario, wantLabels[i])
		}
		if r.Departed+r.Rejected != r.Arrived {
			t.Errorf("row %s leaked jobs: %d departed + %d rejected != %d arrived",
				r.Scenario, r.Departed, r.Rejected, r.Arrived)
		}
		if r.Placed+r.Rejected != r.Arrived {
			t.Errorf("row %s counted jobs twice: %d placed + %d rejected != %d arrived",
				r.Scenario, r.Placed, r.Rejected, r.Arrived)
		}
	}
	for _, i := range []int{2, 3} {
		if rows[i].FaultMigs == 0 {
			t.Errorf("faulted row %s re-placed no gangs after the crash", rows[i].Scenario)
		}
	}
	table := ExtChurnRender(rows).String()
	if !strings.Contains(table, "destination-swap") {
		t.Errorf("rendered table missing policy label:\n%s", table)
	}
}

// A churn report is byte-identical across reruns at the experiments layer
// too (deployment naming and fault wiring included), with the same kernel
// event counts, and the log tap does not perturb the run.
func TestExtChurnDeterminism(t *testing.T) {
	sc := ChurnScenario{Policy: churn.PolicySwap, Faults: ChurnCrashPlan()}
	plain, err := RunChurnScenario(ChurnConfig{}, sc)
	if err != nil {
		t.Fatalf("untapped run: %v", err)
	}
	lines := 0
	tapped, err := RunChurnScenarioWith(ChurnConfig{}, sc, func(string, ...any) { lines++ })
	if err != nil {
		t.Fatalf("tapped run: %v", err)
	}
	if plain.Report.JSON() != tapped.Report.JSON() {
		t.Fatalf("rerun reports differ:\nuntapped: %s\ntapped:   %s",
			plain.Report.JSON(), tapped.Report.JSON())
	}
	if plain.Row.Stats != tapped.Row.Stats {
		t.Fatalf("rerun kernel stats differ: untapped %+v, tapped %+v", plain.Row.Stats, tapped.Row.Stats)
	}
	if lines == 0 {
		t.Fatal("log tap observed no engine lines on a faulted run")
	}
}

// ChurnVictims names the nodes DeployChurn builds, in candidate order.
func TestChurnVictims(t *testing.T) {
	victims := ChurnVictims(ChurnConfig{})
	d := DeployChurn(ChurnConfig{})
	defer d.K.Close()
	var got []string
	for _, s := range d.Topo.Sites {
		for _, n := range s.Nodes {
			got = append(got, n.Name)
		}
	}
	if len(victims) != len(got) {
		t.Fatalf("victims %v, deployment %v", victims, got)
	}
	for i := range victims {
		if victims[i] != got[i] {
			t.Fatalf("victim %d: %q, deployment has %q", i, victims[i], got[i])
		}
	}
}
