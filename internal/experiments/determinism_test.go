package experiments

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
)

// requireRerunIdentical fails unless two runs of the same program rendered
// byte-identical tables and replayed the same kernel counters per row.
func requireRerunIdentical(t *testing.T, what, table1, table2 string, stats1, stats2 []sim.Stats) {
	t.Helper()
	if table1 != table2 {
		t.Fatalf("%s not reproducible across runs:\n--- run 1:\n%s\n--- run 2:\n%s", what, table1, table2)
	}
	if !slices.Equal(stats1, stats2) {
		t.Fatalf("%s kernel stats differ across runs:\nrun 1: %+v\nrun 2: %+v", what, stats1, stats2)
	}
}

// TestExtRDMADeterminism is the RDMA-native acceptance row: the six-rung
// ext-rdma ladder (clean replay, each injected demotion, the preflight
// demotion and the hotplug baseline) must render byte-identical, with the
// same kernel event counts, across consecutive runs. With the mode off the
// rows ARE the hotplug baseline, so this also pins the zero-fault
// observables the bench baseline guards.
func TestExtRDMADeterminism(t *testing.T) {
	run := func() (string, []sim.Stats) {
		rows, err := ExtRDMA()
		if err != nil {
			t.Fatalf("ladder: %v", err)
		}
		if len(rows) != len(extRDMAScenarios()) {
			t.Fatalf("ladder: %d rows", len(rows))
		}
		var stats []sim.Stats
		for _, r := range rows {
			stats = append(stats, r.Stats)
		}
		return ExtRDMARender(rows).String(), stats
	}
	table1, stats1 := run()
	table2, stats2 := run()
	requireRerunIdentical(t, "ext-rdma ladder", table1, table2, stats1, stats2)
}

// TestExtFleetDeterminism is the fleet acceptance gate: the full ext-fleet
// matrix (every directive × policy × fault combination) must render
// byte-identical, with the same kernel event counts, across two
// consecutive runs — under both sequencing modes. Any divergence in event
// ordering, PS completion order, pooled-event reuse, flow completion
// order, or sequencer tie-breaking shows up here.
func TestExtFleetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run fleet matrix is not short")
	}
	for _, seqMode := range []string{"", "maxflow"} {
		run := func() (string, []sim.Stats) {
			rows, err := ExtFleetMatrix(context.Background(), FleetConfig{Jobs: 3}, seqMode)
			if err != nil {
				t.Fatalf("seq %q matrix: %v", seqMode, err)
			}
			if len(rows) != len(ExtFleetScenarios(2, seqMode)) {
				t.Fatalf("seq %q matrix: %d rows", seqMode, len(rows))
			}
			var stats []sim.Stats
			for _, r := range rows {
				stats = append(stats, r.Stats)
			}
			return ExtFleetRender(rows).String(), stats
		}
		table1, stats1 := run()
		table2, stats2 := run()
		requireRerunIdentical(t, fmt.Sprintf("seq %q fleet matrix", seqMode), table1, table2, stats1, stats2)
	}
}
