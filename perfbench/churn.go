package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/churn"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/sim"
)

// churn workload: online churn over 32 IB + 32 Ethernet nodes under
// greedy and destination-swap placement, each with and without a node
// crash. Each scenario runs four seeded arrival sequences of 2048 jobs at
// 1.2 arrivals/s, so the fleet is overloaded and about 28% of arrivals
// are rejected: near capacity (0.8/s, about 7% rejected) the rejection
// share swings by half its value from seed to seed, because occupancy
// random-walks around the capacity edge. The crash victim is drawn from
// the seed too. No VMs, MPI or flows are simulated: the time goes to
// placement and admission.

// churnSequences is how many independent arrival sequences a scenario runs.
const churnSequences = 4

// churnConfigs is the workload's deployment for each arrival sequence.
func churnConfigs(cfg config) []experiments.ChurnConfig {
	jobs, nodes := 2048, 32
	if cfg.small {
		jobs, nodes = 128, 8
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var out []experiments.ChurnConfig
	for i := 0; i < churnSequences; i++ {
		out = append(out, experiments.ChurnConfig{
			IBNodes: nodes, EthNodes: nodes,
			Workload: churn.Workload{Seed: rng.Int63(), Jobs: jobs, ArrivalRate: 1.2 * float64(nodes) / 32},
		})
	}
	return out
}

// churnScenarios is the policy × fault matrix with a seeded crash victim
// among the IB nodes, crashing at 120 s for 180 s.
func churnScenarios(cc experiments.ChurnConfig, seed int64) []experiments.ChurnScenario {
	rng := rand.New(rand.NewSource(^seed))
	victim := experiments.ChurnVictims(cc)[rng.Intn(cc.IBNodes)]
	crash := &faults.Plan{Name: "node-crash", Specs: []faults.Spec{{
		Kind: faults.KindNodeCrash, Target: victim, At: 120 * sim.Second, For: 180 * sim.Second,
	}}}
	return []experiments.ChurnScenario{
		{Policy: churn.PolicyGreedy},
		{Policy: churn.PolicySwap},
		{Policy: churn.PolicyGreedy, Faults: crash},
		{Policy: churn.PolicySwap, Faults: crash},
	}
}

func runChurn(cfg config) (*outcome, error) {
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	ccs := churnConfigs(cfg)
	scs := churnScenarios(ccs[0], cfg.seed)
	m, err := repeat(func(p *pass) error { return churnPass(p, ccs, scs) }, cfg.budget, 3, tr)
	if err != nil {
		return nil, err
	}
	out := inProcessOutcome(cfg, m, tr)
	if !cfg.trace {
		// Churn has no prediction to check: its mini-plans hold the wire
		// for exactly the sequencer's predicted time, so their error is 0
		// by construction. It carries the paper model's error, computed
		// once outside the timed passes; the value is a copy of paper's
		// model_err_s and cannot regress independently of it.
		anchor := newPass(0, nil)
		if err := paperPublished(anchor, &paperTotals{}); err != nil {
			return nil, fmt.Errorf("paper model anchor: %w", err)
		}
		out.e2e["model_err_s"] = anchor.sim["model_err_s"]
		out.errs = append(out.errs, anchor.errs...)
	}
	return out, nil
}

// churnPass runs every churn scenario over every arrival sequence once.
func churnPass(p *pass, ccs []experiments.ChurnConfig, scs []experiments.ChurnScenario) error {
	var downtime, makespan, cost, waitP95 float64
	arrived, rejected := 0, 0
	for i, cc := range ccs {
		for _, sc := range scs {
			rep, err := p.churnRun(cc, sc, fmt.Sprintf("%s#%d", sc.Label(), i))
			if err != nil {
				return err
			}
			waitP95 += rep.WaitP95.Seconds()
			arrived += rep.Arrived
			rejected += rep.Rejected
			downtime += rep.WaitTotal.Seconds()
			makespan += rep.Duration.Seconds()
			cost += rep.CostIntegral
		}
	}
	p.add("churn.wait_p95_s", waitP95/float64(len(ccs)*len(scs)))
	p.sim["sim_downtime_s"] = downtime
	p.sim["sim_makespan_s"] = makespan
	p.sim["sim_cost"] = cost
	p.sim["failed_frac"] = fraction(rejected, arrived)
	p.attempted = arrived
	return nil
}

// churnRun deploys a churn testbed and runs one scenario on it with
// churn.Engine, booking it as one op of the pass.
func (p *pass) churnRun(cc experiments.ChurnConfig, sc experiments.ChurnScenario, name string) (churn.Report, error) {
	t := time.Now()
	var d *experiments.ChurnDeployment
	if _, err := p.deploy("experiments.DeployChurn", func() error {
		d = experiments.DeployChurn(cc)
		return nil
	}); err != nil {
		return churn.Report{}, err
	}
	defer d.K.Close()
	opts := churn.Options{Workload: cc.Workload, Policy: sc.Policy, Seq: sc.Seq}
	if sc.Faults != nil {
		opts.Faults = *sc.Faults
	}
	eng, err := churn.New(d.K, d.Topo, opts)
	if err != nil {
		return churn.Report{}, err
	}
	host := p.kernel(d.K, "churn.Engine.Run", func() {
		eng.Start()
		d.K.Run()
	})
	rep := eng.ReportNow()
	p.checkf(eng.Done().Done(), "churn %s: run incomplete", name)
	// Every arrival departs or is rejected. Without a crash every arrival
	// is also placed or rejected; under a crash a job evicted from the
	// failed node that then misses its re-placement deadline counts as
	// both placed and rejected, so only Placed ≤ Arrived holds there.
	p.checkf(rep.Departed+rep.Rejected == rep.Arrived, "churn %s: departed %d + rejected %d != arrived %d",
		name, rep.Departed, rep.Rejected, rep.Arrived)
	if sc.Faults == nil {
		p.checkf(rep.Placed+rep.Rejected == rep.Arrived, "churn %s: placed %d + rejected %d != arrived %d",
			name, rep.Placed, rep.Rejected, rep.Arrived)
	} else {
		p.checkf(rep.Placed <= rep.Arrived, "churn %s: placed %d > arrived %d", name, rep.Placed, rep.Arrived)
	}
	if sc.Policy == churn.PolicyGreedy {
		p.add("churn.greedy_host_s", host.Seconds())
	} else {
		p.add("churn.swap_host_s", host.Seconds())
	}
	p.add("churn.placed", float64(rep.Placed))
	p.add("churn.rejected", float64(rep.Rejected))
	p.add("churn.swap_migs", float64(rep.SwapMigs))
	p.add("churn.fault_migs", float64(rep.FaultMigs))
	p.ops = append(p.ops, op{name: name, host: time.Since(t)})
	p.record("%s %s", name, rep.JSON())
	return rep, nil
}
