package experiments

import (
	"context"
	"fmt"

	"repro/internal/churn"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// This file implements the online churn extension experiment: a
// continuous seeded arrival/departure workload over a two-site
// heterogeneous fleet (scarce InfiniBand, plentiful Ethernet), crossed
// over placement policy — greedy first-fit vs adaptive destination-swap
// — with and without an injected node crash. The headline comparison is
// the time-weighted interconnect-affinity deficit each policy leaves on
// the table, against the migration traffic the adaptive policy spends
// to buy it down.

// ChurnConfig shapes a churn deployment: a small IB site (first in
// candidate order, so the greedy baseline burns its slots blindly) and
// an Ethernet site, with a seeded arrival workload. Both sites hold
// churnSlotsPerNode gangs per node behind wanBandwidthBps uplinks.
type ChurnConfig struct {
	// IBNodes / EthNodes size the two sites (defaults 4 and 4).
	IBNodes  int
	EthNodes int
	// Workload is the seeded arrival process; zero fields default as in
	// churn.Workload (64 jobs, 0.1/s, exponential 120 s lifetimes).
	Workload churn.Workload
}

// churnSlotsPerNode caps churn gangs per node.
const churnSlotsPerNode = 2

func (cfg ChurnConfig) withDefaults() ChurnConfig {
	if cfg.IBNodes <= 0 {
		cfg.IBNodes = 4
	}
	if cfg.EthNodes <= 0 {
		cfg.EthNodes = 4
	}
	return cfg
}

// ChurnVictims returns the deterministic fault-victim node names of the
// deployment DeployChurn(cfg) would build, without building it: the IB
// site's nodes, then the Ethernet site's, in candidate order. Monte
// Carlo sweeps draw seeded victims from this list before a cell's
// testbed exists.
func ChurnVictims(cfg ChurnConfig) []string {
	cfg = cfg.withDefaults()
	var out []string
	for i := 0; i < cfg.IBNodes; i++ {
		out = append(out, fmt.Sprintf("churn-ib-n%02d", i))
	}
	for i := 0; i < cfg.EthNodes; i++ {
		out = append(out, fmt.Sprintf("churn-eth-n%02d", i))
	}
	return out
}

// ChurnDeployment is the churn testbed: a kernel and a two-site
// topology. No guest VMs are booted — churn jobs are abstract gangs the
// engine prices through the fleet sequencer.
type ChurnDeployment struct {
	K    *sim.Kernel
	Topo *fleet.Topology
}

// DeployChurn builds the two-site churn testbed.
func DeployChurn(cfg ChurnConfig) *ChurnDeployment {
	cfg = cfg.withDefaults()
	k := sim.NewKernel()
	tb := hw.NewTestbed(k)
	ib := tb.AddCluster("churn-ib", cfg.IBNodes, hw.AGCNodeSpec)
	ethSpec := hw.AGCNodeSpec
	ethSpec.IBBandwidth = 0
	eth := tb.AddCluster("churn-eth", cfg.EthNodes, ethSpec)
	topo := fleet.NewTopology(
		&fleet.Site{Name: "churn-ib", Nodes: ib.Nodes, SlotsPerNode: churnSlotsPerNode, WANBandwidth: wanBandwidthBps},
		&fleet.Site{Name: "churn-eth", Nodes: eth.Nodes, SlotsPerNode: churnSlotsPerNode, WANBandwidth: wanBandwidthBps},
	)
	return &ChurnDeployment{K: k, Topo: topo}
}

// ChurnScenario is one matrix cell: the placement policy and the fault
// switches.
type ChurnScenario struct {
	// Policy selects greedy first-fit or adaptive destination-swap.
	Policy churn.Policy
	// Seq selects how mini-plan migrations overlap (zero value = the
	// churn default, batched LPT). fleet.SeqMaxFlow routes every
	// mini-plan through the time-expanded max-flow planner.
	Seq fleet.SeqPolicy
	// Faults, when non-nil, is the node-fault script armed over the
	// deployment (absolute sim times; only node-crash specs bite).
	Faults *faults.Plan
}

// Label renders "destination-swap+plan:node-crash"-style identifiers.
func (sc ChurnScenario) Label() string {
	l := sc.Policy.String()
	if sc.Seq.Mode == fleet.SeqMaxFlow {
		l += "+maxflow"
	}
	if sc.Faults != nil && sc.Faults.Name != "" {
		l += "+plan:" + sc.Faults.Name
	}
	return l
}

// ChurnRow is one matrix row's result.
type ChurnRow struct {
	Scenario string
	Arrived  int
	Placed   int
	Rejected int
	Departed int
	// SwapMigs/FaultMigs/MigGB are the corrective-migration spend.
	SwapMigs  int
	FaultMigs int
	MigGB     float64
	// CostIntegral is the time-weighted affinity deficit (points·s);
	// AvgCost the time-averaged deficit. Lower is better.
	CostIntegral float64
	AvgCost      float64
	WaitP50      sim.Time
	WaitP95      sim.Time
	Duration     sim.Time
	// Stats is the kernel's scheduler counters after the run (not
	// rendered); a rerun of the row must reproduce them exactly.
	Stats sim.Stats
}

// ChurnResult pairs the row with the raw report for tests.
type ChurnResult struct {
	Row    ChurnRow
	Report churn.Report
}

// RunChurnScenario deploys a fresh churn testbed and runs the workload
// under the scenario's policy.
func RunChurnScenario(cfg ChurnConfig, sc ChurnScenario) (*ChurnResult, error) {
	return RunChurnScenarioWith(cfg, sc, nil)
}

// RunChurnScenarioWith is RunChurnScenario with a live tap on the
// engine's decision log: logf (if non-nil) observes every engine log
// line as it is emitted, in simulation order. The run itself is
// unchanged — a nil and a non-nil tap produce byte-identical reports,
// which is what lets ninjad stream progress without perturbing the
// determinism its crash-recovery proof depends on.
func RunChurnScenarioWith(cfg ChurnConfig, sc ChurnScenario, logf func(format string, args ...any)) (*ChurnResult, error) {
	cfg = cfg.withDefaults()
	d := DeployChurn(cfg)
	defer d.K.Close()
	opts := churn.Options{
		Workload: cfg.Workload,
		Policy:   sc.Policy,
		Seq:      sc.Seq,
		Log:      logf,
	}
	if sc.Faults != nil {
		opts.Faults = *sc.Faults
	}
	eng, err := churn.New(d.K, d.Topo, opts)
	if err != nil {
		return nil, err
	}
	rep := eng.Run()
	if !eng.Done().Done() {
		return nil, fmt.Errorf("experiments: churn %s: run incomplete (%d/%d jobs resolved)",
			sc.Label(), rep.Departed+rep.Rejected, rep.Arrived)
	}
	row := ChurnRow{
		Scenario:     sc.Label(),
		Arrived:      rep.Arrived,
		Placed:       rep.Placed,
		Rejected:     rep.Rejected,
		Departed:     rep.Departed,
		SwapMigs:     rep.SwapMigs,
		FaultMigs:    rep.FaultMigs,
		MigGB:        rep.MigBytes / hw.GB,
		CostIntegral: rep.CostIntegral,
		AvgCost:      rep.AvgCost,
		WaitP50:      rep.WaitP50,
		WaitP95:      rep.WaitP95,
		Duration:     rep.Duration,
		Stats:        d.K.Stats(),
	}
	return &ChurnResult{Row: row, Report: rep}, nil
}

// ChurnCrashPlan is the default faulted row's script: the first IB node
// crashes at 120 s — well into the loaded phase, so the gangs it hosts
// are evicted and re-placed under contention — and restores three
// minutes later.
func ChurnCrashPlan() *faults.Plan {
	return &faults.Plan{
		Name: "node-crash",
		Specs: []faults.Spec{{
			Kind: faults.KindNodeCrash, Target: "churn-ib-n00",
			At: 120 * sim.Second, For: 180 * sim.Second,
		}},
	}
}

// ExtChurnScenarios is the policy × fault matrix: both policies fault
// free, then both policies through the node-crash plan.
func ExtChurnScenarios() []ChurnScenario {
	return []ChurnScenario{
		{Policy: churn.PolicyGreedy},
		{Policy: churn.PolicySwap},
		{Policy: churn.PolicyGreedy, Faults: ChurnCrashPlan()},
		{Policy: churn.PolicySwap, Faults: ChurnCrashPlan()},
	}
}

// ExtChurnMatrix runs the full churn policy × fault matrix, checking ctx
// between scenarios.
func ExtChurnMatrix(ctx context.Context, cfg ChurnConfig) ([]ChurnRow, error) {
	var rows []ChurnRow
	for _, sc := range ExtChurnScenarios() {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		res, err := RunChurnScenario(cfg, sc)
		if err != nil {
			return rows, err
		}
		rows = append(rows, res.Row)
	}
	return rows, nil
}

// ExtChurnRender formats the churn matrix.
func ExtChurnRender(rows []ChurnRow) *metrics.Table {
	t := metrics.NewTable("Ext. — online churn: adaptive destination-swap vs greedy placement",
		"policy", "arrived", "placed", "rejected", "departed",
		"swap-migs", "fault-migs", "mig [GB]",
		"cost [pt·s]", "avg-cost", "wait-p50", "wait-p95", "span [s]")
	for _, r := range rows {
		t.AddRow(r.Scenario, r.Arrived, r.Placed, r.Rejected, r.Departed,
			r.SwapMigs, r.FaultMigs, fmt.Sprintf("%.1f", r.MigGB),
			fmt.Sprintf("%.0f", r.CostIntegral), fmt.Sprintf("%.1f", r.AvgCost),
			r.WaitP50, r.WaitP95, r.Duration)
	}
	return t
}
