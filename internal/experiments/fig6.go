package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/ninja"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Fig6Row is one footprint point of Fig. 6: the Ninja migration overhead
// breakdown on the memtest benchmark.
type Fig6Row struct {
	FootprintGB float64
	Migration   sim.Time
	Hotplug     sim.Time
	Linkup      sim.Time
	Total       sim.Time
}

// Fig6 reproduces Fig. 6: 8 VMs running memtest with array sizes of
// 2–16 GB migrate between two InfiniBand clusters ("both the source and
// the destination clusters use Infiniband only"); the overhead decomposes
// into migration (footprint-dependent, sub-linear thanks to zero-page
// compression), hotplug (≈3× Table II under migration noise) and link-up
// (constant ≈30 s).
func Fig6(footprintsGB []float64) ([]Fig6Row, error) {
	if len(footprintsGB) == 0 {
		footprintsGB = []float64{2, 4, 8, 16}
	}
	var rows []Fig6Row
	for _, f := range footprintsGB {
		d, err := Deploy(DeployConfig{
			NVMs: 8, RanksPerVM: 1, AttachHCA: true,
			DstHasIB: true, ContinueLikeRestart: true,
		})
		if err != nil {
			return nil, err
		}
		passTime := f * 1e9 / workloads.MemWriteBandwidth
		passes := int(240/passTime) + 1
		mt := &workloads.Memtest{ArrayBytes: f * 1e9, Passes: passes}
		appDone, err := workloads.Run(d.Job, mt)
		if err != nil {
			return nil, err
		}
		var rep ninja.Report
		var migErr error
		d.K.Go("driver", func(p *sim.Proc) {
			p.Sleep(30 * sim.Second)
			rep, migErr = d.Orch.Migrate(p, d.DstNodes(8))
		})
		d.K.Run()
		d.K.Close()
		if migErr != nil {
			return nil, fmt.Errorf("experiments: fig6 %vGB: %w", f, migErr)
		}
		if !appDone.Done() {
			return nil, fmt.Errorf("experiments: fig6 %vGB: memtest did not finish", f)
		}
		rows = append(rows, Fig6Row{
			FootprintGB: f,
			Migration:   rep.Migration,
			Hotplug:     rep.Hotplug(),
			Linkup:      rep.Linkup,
			Total:       rep.Total,
		})
	}
	return rows, nil
}

// Fig6Render formats the rows like the paper's stacked bars.
func Fig6Render(rows []Fig6Row) *metrics.Table {
	t := metrics.NewTable("Fig. 6 — Ninja migration overhead on memtest [seconds]",
		"Array", "migration", "hotplug", "link-up", "total")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%.0fGB", r.FootprintGB), r.Migration, r.Hotplug, r.Linkup, r.Total)
	}
	return t
}
