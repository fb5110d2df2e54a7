package experiments

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/ninja"
	"repro/internal/sim"
	"repro/internal/workloads"
)

// Fig8Result is the fallback-and-recovery experiment outcome: rank 0's
// per-iteration elapsed times with the migration overhead landing in
// steps 11, 21 and 31 (1-indexed), plus the three migration reports.
type Fig8Result struct {
	RanksPerVM int
	Series     metrics.Series
	// Phase[i] labels step i ("4 hosts (IB)", "2 hosts (TCP)", ...).
	Phase   []string
	Reports []ninja.Report
}

// fig8Migration is one gated migration of the scenario.
type fig8Migration struct {
	step     int
	dsts     []*hw.Node
	label    string
	arrivals int
	ready    *sim.Future[struct{}]
	release  *sim.Future[struct{}]
}

// Fig8 reproduces Fig. 8: 4 VMs running the bcast+reduce benchmark (8 GB
// per node, 40 steps) follow the scenario 4 hosts (IB) → 2 hosts (TCP) →
// 4 hosts (IB) → 4 hosts (TCP), with Ninja migration launched every 10
// iteration steps. ranksPerVM is 1 (Fig. 8a) or 8 (Fig. 8b).
func Fig8(ranksPerVM int, steps int) (*Fig8Result, error) {
	if steps <= 0 {
		steps = 40
	}
	d, err := Deploy(DeployConfig{
		NVMs: 4, RanksPerVM: ranksPerVM, AttachHCA: true,
		DstHasIB: false, ContinueLikeRestart: true,
	})
	if err != nil {
		return nil, err
	}
	k := d.K
	defer k.Close()
	nRanks := d.Job.Size()

	// The scenario's three migrations, gated at exact step boundaries.
	third := steps / 4
	consolidated := []*hw.Node{d.Dst.Nodes[0], d.Dst.Nodes[0], d.Dst.Nodes[1], d.Dst.Nodes[1]}
	home := d.SrcNodes(4)
	spread := d.DstNodes(4)
	plan := map[int]*fig8Migration{}
	for _, m := range []*fig8Migration{
		{step: 1 * third, dsts: consolidated, label: "2 hosts (TCP)"},
		{step: 2 * third, dsts: home, label: "4 hosts (IB)"},
		{step: 3 * third, dsts: spread, label: "4 hosts (TCP)"},
	} {
		m.ready = sim.NewFuture[struct{}](k)
		m.release = sim.NewFuture[struct{}](k)
		plan[m.step] = m
	}

	res := &Fig8Result{RanksPerVM: ranksPerVM,
		Series: metrics.Series{Label: fmt.Sprintf("Fig. 8 — %d process(es)/VM", ranksPerVM)}}
	res.Phase = make([]string, steps)
	label := "4 hosts (IB)"
	for s := 0; s < steps; s++ {
		if m, ok := plan[s]; ok {
			label = m.label
		}
		res.Phase[s] = label
	}

	bench := &workloads.BcastReduce{
		BytesPerNode: 8e9,
		Steps:        steps,
		StepDone: func(step int, elapsed sim.Time) {
			res.Series.Add(step+1, elapsed) // 1-indexed, as in the paper
		},
		BeforeStep: func(p *sim.Proc, r *mpi.Rank, step int) {
			m, ok := plan[step]
			if !ok {
				return
			}
			m.arrivals++
			if m.arrivals == nRanks {
				m.ready.Set(struct{}{})
			}
			m.release.Wait(p)
		},
	}
	appDone, err := workloads.Run(d.Job, bench)
	if err != nil {
		return nil, err
	}

	var migErr error
	order := []*fig8Migration{plan[1*third], plan[2*third], plan[3*third]}
	k.Go("scenario-driver", func(p *sim.Proc) {
		for _, m := range order {
			m.ready.Wait(p)
			// Release the ranks and request the checkpoint within the
			// same run-slice: the request is visible before any rank's
			// next FTProbe.
			m.release.Set(struct{}{})
			rep, err := d.Orch.Migrate(p, m.dsts)
			if err != nil {
				migErr = fmt.Errorf("experiments: fig8 step %d: %w", m.step, err)
				return
			}
			res.Reports = append(res.Reports, rep)
		}
	})
	k.Run()
	if migErr != nil {
		return nil, migErr
	}
	if !appDone.Done() {
		return nil, fmt.Errorf("experiments: fig8 (%d ranks/VM): app did not finish", ranksPerVM)
	}
	return res, nil
}

// Fig8Render formats the per-step series with phase labels and, for the
// migration steps, the application/overhead split of the paper's stacked
// bars (overhead = the Ninja report's trigger-to-resume total).
func Fig8Render(res *Fig8Result) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Fig. 8 — fallback and recovery migration (%d process(es)/VM)", res.RanksPerVM),
		"Step", "Phase", "Elapsed [s]", "Application [s]", "Overhead [s]")
	migSteps := map[int]ninja.Report{}
	third := len(res.Series.Points) / 4
	for i, rep := range res.Reports {
		migSteps[(i+1)*third] = rep
	}
	for i, pt := range res.Series.Points {
		if rep, ok := migSteps[i]; ok {
			app := pt.Y - rep.Total
			if app < 0 {
				app = 0
			}
			t.AddRow(pt.X, res.Phase[i], pt.Y, app, rep.Total)
			continue
		}
		t.AddRow(pt.X, res.Phase[i], pt.Y, pt.Y, sim.Time(0))
	}
	return t
}
