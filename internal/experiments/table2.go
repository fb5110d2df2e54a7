package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/ninja"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Table2Row is one interconnect combination of Table II.
type Table2Row struct {
	Src, Dst string // "Infiniband" or "Ethernet"
	Hotplug  sim.Time
	Linkup   sim.Time
}

// Table2 reproduces Table II: elapsed hotplug and link-up time of a
// self-migration under the four interconnect combinations, measured with
// 8 VMs running the 2 GB memtest benchmark (§IV-B1).
func Table2() ([]Table2Row, error) {
	combos := []struct {
		src, dst string
		attach   bool // HCA attached at boot (source setting)
		policy   ninja.AttachPolicy
	}{
		{"Infiniband", "Infiniband", true, ninja.AttachAuto},
		{"Infiniband", "Ethernet", true, ninja.AttachNever},
		{"Ethernet", "Infiniband", false, ninja.AttachAuto},
		{"Ethernet", "Ethernet", false, ninja.AttachNever},
	}
	var rows []Table2Row
	for _, c := range combos {
		d, err := Deploy(DeployConfig{
			NVMs: 8, RanksPerVM: 1, AttachHCA: c.attach,
			DstHasIB: true, ContinueLikeRestart: true,
		})
		if err != nil {
			return nil, err
		}
		mt := &workloads.Memtest{ArrayBytes: 2e9, Passes: 400}
		appDone, err := workloads.Run(d.Job, mt)
		if err != nil {
			return nil, err
		}
		var rep ninja.Report
		var migErr error
		d.K.Go("driver", func(p *sim.Proc) {
			p.Sleep(5 * sim.Second)
			dsts := d.SrcNodes(8) // self-migration: every VM to its own node
			rep, migErr = d.Orch.MigratePolicy(p, dsts, c.policy)
		})
		d.K.Run()
		d.K.Close()
		if migErr != nil {
			return nil, fmt.Errorf("experiments: table2 %s→%s: %w", c.src, c.dst, migErr)
		}
		if !appDone.Done() {
			return nil, fmt.Errorf("experiments: table2 %s→%s: memtest did not finish", c.src, c.dst)
		}
		rows = append(rows, Table2Row{Src: c.src, Dst: c.dst, Hotplug: rep.Hotplug(), Linkup: rep.Linkup})
	}
	return rows, nil
}

// Table2Render formats the rows like the paper's table.
func Table2Render(rows []Table2Row) *metrics.Table {
	t := metrics.NewTable("Table II — Elapsed time of hotplug and link-up [seconds]",
		"Src", "Dst", "hotplug", "link-up")
	for _, r := range rows {
		t.AddRow(r.Src, r.Dst, r.Hotplug, r.Linkup)
	}
	return t
}
