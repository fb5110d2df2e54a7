package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/ninja"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Fig7Row is one NPB kernel of Fig. 7: baseline vs proposed (one Ninja
// migration at t=180 s) with the overhead breakdown.
type Fig7Row struct {
	Kernel      string
	Baseline    sim.Time // execution without Ninja migration
	Proposed    sim.Time // execution with one Ninja migration
	Migration   sim.Time
	Hotplug     sim.Time
	Linkup      sim.Time
	Application sim.Time // Proposed minus the overhead components
}

// Fig7 reproduces Fig. 7: NPB 3.3 class D with 64 processes on 8 VMs × 8
// ranks, migrating between InfiniBand clusters three minutes after start.
// scale < 1 shrinks the iteration counts proportionally (and the trigger
// time with them) for quick runs; use 1.0 for the paper-shaped result.
func Fig7(kernels []string, scale float64) ([]Fig7Row, error) {
	if len(kernels) == 0 {
		kernels = []string{"BT", "CG", "FT", "LU"}
	}
	if scale <= 0 {
		scale = 1
	}
	var rows []Fig7Row
	for _, kn := range kernels {
		row := Fig7Row{Kernel: kn}
		var rep ninja.Report
		for _, withNinja := range []bool{false, true} {
			d, err := Deploy(DeployConfig{
				NVMs: 8, RanksPerVM: 8, AttachHCA: true,
				DstHasIB: true, ContinueLikeRestart: true,
			})
			if err != nil {
				return nil, err
			}
			bench, err := workloads.NPBClassD(kn)
			if err != nil {
				return nil, err
			}
			bench.Iterations = int(float64(bench.Iterations)*scale + 0.5)
			if bench.Iterations < 4 {
				bench.Iterations = 4
			}
			appDone, err := workloads.Run(d.Job, bench)
			if err != nil {
				return nil, err
			}
			start := d.K.Now()
			var migErr error
			if withNinja {
				d.K.Go("driver", func(p *sim.Proc) {
					p.Sleep(sim.FromSeconds(180 * scale))
					var r ninja.Report
					r, migErr = d.Orch.Migrate(p, d.DstNodes(8))
					rep = r
				})
			}
			d.K.Run()
			d.K.Close()
			if migErr != nil {
				return nil, fmt.Errorf("experiments: fig7 %s: %w", kn, migErr)
			}
			if !appDone.Done() {
				return nil, fmt.Errorf("experiments: fig7 %s: benchmark did not finish", kn)
			}
			elapsed := d.K.Now() - start
			if withNinja {
				row.Proposed = elapsed
			} else {
				row.Baseline = elapsed
			}
		}
		row.Migration = rep.Migration
		row.Hotplug = rep.Hotplug()
		row.Linkup = rep.Linkup
		row.Application = row.Proposed - row.Migration - row.Hotplug - row.Linkup
		rows = append(rows, row)
	}
	return rows, nil
}

// Fig7Render formats the rows like the paper's grouped bars.
func Fig7Render(rows []Fig7Row) *metrics.Table {
	t := metrics.NewTable("Fig. 7 — Ninja migration overhead on NPB 3.3 (64 procs, class D) [seconds]",
		"Kernel", "baseline", "proposed", "application", "migration", "hotplug", "link-up")
	for _, r := range rows {
		t.AddRow(r.Kernel, r.Baseline, r.Proposed, r.Application, r.Migration, r.Hotplug, r.Linkup)
	}
	return t
}
