package experiments

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/fleet"
)

// TestFleetGolden pins the 16-job fleet matrix under both sequencers —
// sixteen directives whose 32 one-rank applications each run a
// 3000-quantum compute chain through every migration: each row's
// predicted and measured makespan, downtime, batches, replans, requeues
// and outcomes, every job's phase spans, every application's finish
// instant and the kernel's event counters must match
// testdata/fleet.golden byte for byte.
func TestFleetGolden(t *testing.T) {
	scs := append(ExtFleetScenarios(2, ""), ExtFleetScenarios(2, fleet.SeqMaxFlow)...)
	var b strings.Builder
	for _, sc := range scs {
		res, err := RunFleetScenario(FleetConfig{Jobs: 16}, sc)
		if err != nil {
			t.Fatal(err)
		}
		r := res.Row
		fmt.Fprintf(&b, "== %s pred=%d makespan=%d downtime=%d batches=%d replans=%d requeues=%d outcomes=%s stats=%+v\n",
			r.Scenario, int64(r.Predicted), int64(r.Makespan), int64(r.Downtime), r.Batches,
			r.Replans, r.Requeues, r.Outcomes, r.Stats)
		for _, jo := range res.Report.Jobs {
			rep := jo.Report
			fmt.Fprintf(&b, "job %s leg=%q batch=%d attempts=%d outcome=%s started=%d finished=%d coord=%d detach=%d migration=%d attach=%d linkup=%d total=%d\n",
				jo.Job.Name, jo.Leg, jo.Batch, jo.Attempts, jo.Outcome, int64(jo.Started), int64(jo.Finished),
				int64(rep.Coordination), int64(rep.Detach), int64(rep.Migration), int64(rep.Attach),
				int64(rep.Linkup), int64(rep.Total))
		}
		for i, at := range res.AppEnds {
			fmt.Fprintf(&b, "app %d end=%d\n", i, int64(at))
		}
	}
	checkGoldenText(t, "fleet.golden", b.String())
}
