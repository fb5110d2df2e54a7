// Online churn: jobs arrive on a seeded Poisson process, live for a
// bounded random lifetime, and depart — and the placement engine decides
// online where each gang lands. The greedy baseline burns the scarce
// InfiniBand slots on whatever arrives first; the adaptive
// destination-swap policy (after Avin et al., arXiv:1309.5826) spends
// bounded corrective migrations — priced through the fleet cost model
// and sequenced on the shared links — to keep IB-capable jobs on IB
// nodes as the mix drifts. The headline metric is the time integral of
// the fleet-wide affinity deficit: how many interconnect points the
// policy left on the table, for how long.
//
// The walkthrough runs both policies on the same seeded workload (tap on
// the engine's decision log included), then re-runs the comparison
// through a node crash, and finally shows the simfarm sweep view: the
// same matrix replicated over many seeded workloads with percentile
// aggregation.
//
// Run: go run ./examples/churn
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/churn"
	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/simfarm"
)

func main() {
	cfg := experiments.ChurnConfig{}
	cfg.Workload.Jobs = 32
	cfg.Workload.Seed = 7

	// Leg 1: one seeded workload, both policies, engine log tapped.
	fmt.Println("== one workload, two policies ==")
	var rows []experiments.ChurnRow
	for _, policy := range []churn.Policy{churn.PolicyGreedy, churn.PolicySwap} {
		res, err := experiments.RunChurnScenarioWith(cfg,
			experiments.ChurnScenario{Policy: policy},
			func(format string, args ...any) {
				if policy == churn.PolicySwap {
					fmt.Printf("  [engine] "+format+"\n", args...)
				}
			})
		if err != nil {
			log.Fatal(err)
		}
		rows = append(rows, res.Row)
		fmt.Printf("%-16s  cost %.0f pt·s  (avg %.1f)  swap-migs %d  rejected %d\n",
			policy, res.Row.CostIntegral, res.Row.AvgCost, res.Row.SwapMigs, res.Row.Rejected)
	}
	saved := 1 - rows[1].CostIntegral/rows[0].CostIntegral
	fmt.Printf("destination-swap bought down %.0f%% of greedy's affinity deficit\n\n", 100*saved)

	// Leg 2: the full policy × fault matrix — the ninjabench ext-churn view.
	fmt.Println("== policy × fault matrix ==")
	matrix, err := experiments.ExtChurnMatrix(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(experiments.ExtChurnRender(matrix))

	// Leg 3: the sweep view — each seed is a different workload, and the
	// farm aggregates makespan/downtime percentiles per policy × plan row.
	fmt.Println("== Monte Carlo sweep (8 seeded workloads per row) ==")
	f, err := simfarm.New(scenario.ChurnMatrix(24, 8), simfarm.Options{})
	if err != nil {
		log.Fatal(err)
	}
	res, err := f.Run(context.Background())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res.Summary.Render())
	fmt.Printf("%d runs, %d failures, %.0f runs/sec at parallelism %d\n",
		res.Summary.Runs, res.Summary.Failures, res.Wall.RunsPerSec, res.Wall.Parallelism)
}
