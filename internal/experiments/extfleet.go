package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/ninja"
	"repro/internal/scheduler"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vmm"
)

// This file implements the fleet control-plane extension experiment: a
// datacenter evacuation of N independent MPI jobs, crossed over placement
// policy (greedy first-fit vs swap-refined) and sequencing policy
// (sequential vs batched gang execution), plus a faulted run where a
// planned destination node crashes mid-directive and the control plane
// replans the not-yet-started migrations.

// FleetConfig shapes a fleet deployment. Every other dimension of the
// testbed is fixed: see the constants below.
type FleetConfig struct {
	// Jobs is the number of independent MPI jobs (default 8). Jobs
	// alternate IB-capable (VMM-bypass HCAs attached at boot, even
	// indices) and TCP-only (odd indices).
	Jobs int
	// VMsPerJob is each job's gang size (default 2; one VM per node —
	// a passthrough HCA cannot be shared between guests).
	VMsPerJob int
}

const (
	// fleetGuestMemGB is guest RAM per VM: small guests keep the
	// fleet-sized matrix tractable.
	fleetGuestMemGB = 4
	// fleetDataGB is the per-VM workload region.
	fleetDataGB = 1
	// fleetSpares is the count of dc1 standby nodes handed to the shared
	// scheduler.Spares pool, outside the fleet placement.
	fleetSpares = 2
	// wanBandwidthBps is every site's uplink circuit capacity, fleet and
	// churn testbeds alike: a 10 Gbit/s disaster-recovery circuit.
	wanBandwidthBps = 1.25e9
	// fleetAppIters is each job's iteration count; the apps must outlive
	// the directive so late migrations still find ranks to quiesce
	// (3000 × 0.2 s ≈ 600 s of compute). They run as compute chains
	// (mpi.Rank.ComputeLoop), so an iteration costs a kernel event only
	// where a checkpoint or a stop surfaces it.
	fleetAppIters = 3000
	// fleetDrainCap is the matrix's rolling-maintenance jobs-in-flight cap
	// per mini-plan.
	fleetDrainCap = 2
)

func (cfg FleetConfig) withDefaults() FleetConfig {
	if cfg.Jobs <= 0 {
		cfg.Jobs = 8
	}
	if cfg.VMsPerJob <= 0 {
		cfg.VMsPerJob = 2
	}
	return cfg
}

// shape returns the deployment's VM count and the dc1 IB-destination node
// count for a defaulted config — the single source of truth shared by
// DeployFleet and FleetVictims.
func (cfg FleetConfig) shape() (nVMs, ibDst int) {
	nVMs = cfg.Jobs * cfg.VMsPerJob
	ibDst = nVMs / 2
	if ibDst < cfg.VMsPerJob {
		ibDst = cfg.VMsPerJob // room for at least one gang on IB
	}
	return nVMs, ibDst
}

// FleetVictims returns the deterministic fault-victim name lists of the
// deployment DeployFleet(cfg) would boot, without booting anything: every
// fleet VM ("j00v00", ...) and every destination node (the dc1 IB nodes
// and the dc2 Ethernet nodes, in site order). Monte Carlo sweeps draw
// seeded victims from these lists before a cell's testbed exists.
func FleetVictims(cfg FleetConfig) (vms, dstNodes []string) {
	cfg = cfg.withDefaults()
	nVMs, ibDst := cfg.shape()
	for j := 0; j < cfg.Jobs; j++ {
		for v := 0; v < cfg.VMsPerJob; v++ {
			vms = append(vms, fmt.Sprintf("j%02dv%02d", j, v))
		}
	}
	for i := 0; i < ibDst; i++ {
		dstNodes = append(dstNodes, fmt.Sprintf("dc1-n%02d", i))
	}
	for i := 0; i < nVMs; i++ {
		dstNodes = append(dstNodes, fmt.Sprintf("dc2-n%02d", i))
	}
	return vms, dstNodes
}

// FleetDeployment is a three-site testbed under fleet control: dc0 is the
// IB source hosting every job, dc1 a smaller IB destination (plus spare
// nodes feeding the shared pool), dc2 an Ethernet destination big enough
// for the whole fleet. Destination capacity is scarce on the IB side by
// construction, so placement policy visibly matters.
type FleetDeployment struct {
	K      *sim.Kernel
	W      *hw.WideArea
	NFS    *storage.NFS
	Topo   *fleet.Topology
	Source *fleet.Site // dc0, the site the directive evacuates
	Jobs   []*fleet.Job
	Apps   []*sim.Future[struct{}]
	// AppEnds is the instant each job's application returned on its last
	// rank (the instant its Apps future resolves).
	AppEnds []sim.Time
	Spares  *scheduler.Spares
	// SpareNodes are the dc1 standbys behind Spares (for tests).
	SpareNodes []*hw.Node
	// Epoch is the simulated time after boot + link training.
	Epoch sim.Time
}

// VMs returns every fleet VM, job-major.
func (d *FleetDeployment) VMs() []*vmm.VM {
	var out []*vmm.VM
	for _, j := range d.Jobs {
		out = append(out, j.VMs()...)
	}
	return out
}

// DeployFleet boots the three-site fleet testbed and launches the jobs'
// iterating applications.
func DeployFleet(cfg FleetConfig) (*FleetDeployment, error) {
	cfg = cfg.withDefaults()
	nVMs, ibDst := cfg.shape()
	ethSpec := hw.AGCNodeSpec
	ethSpec.IBBandwidth = 0
	k := sim.NewKernel()
	w := hw.NewWideArea(k, hw.WideAreaConfig{
		Sites: []hw.SiteConfig{
			{Nodes: nVMs, Spec: hw.AGCNodeSpec},                // dc0: IB source
			{Nodes: ibDst + fleetSpares, Spec: hw.AGCNodeSpec}, // dc1: scarce IB destination
			{Nodes: nVMs, Spec: ethSpec},                       // dc2: Ethernet overflow
		},
		WANBandwidth: wanBandwidthBps,
		WANLatency:   10 * sim.Millisecond,
	})
	nfs := storage.NewNFS("wan-nfs")
	nfs.MountAll(w.DCs[0].Cluster, w.DCs[1].Cluster, w.DCs[2].Cluster)

	d := &FleetDeployment{K: k, W: w, NFS: nfs}
	dc1 := w.DCs[1].Cluster.Nodes
	src := &fleet.Site{Name: "dc0", Nodes: w.DCs[0].Cluster.Nodes, WANBandwidth: wanBandwidthBps}
	dst1 := &fleet.Site{Name: "dc1", Nodes: dc1[:ibDst], WANBandwidth: wanBandwidthBps}
	dst2 := &fleet.Site{Name: "dc2", Nodes: w.DCs[2].Cluster.Nodes, WANBandwidth: wanBandwidthBps}
	d.Topo = fleet.NewTopology(src, dst1, dst2)
	d.Source = src
	d.SpareNodes = dc1[ibDst:]
	d.Spares = scheduler.NewSpares(d.SpareNodes...)

	// Boot one VM per dc0 node; even-indexed jobs carry boot-attached
	// HCAs, odd-indexed jobs ride the tcp BTL.
	var vms [][]*vmm.VM
	for j := 0; j < cfg.Jobs; j++ {
		ib := j%2 == 0
		var gang []*vmm.VM
		for v := 0; v < cfg.VMsPerJob; v++ {
			node := w.DCs[0].Cluster.Nodes[j*cfg.VMsPerJob+v]
			vm, err := vmm.New(k, node, w.Segment, vmm.Config{
				Name:        fmt.Sprintf("j%02dv%02d", j, v),
				VCPUs:       2,
				MemoryBytes: fleetGuestMemGB * hw.GB,
			}, vmm.DefaultParams())
			if err != nil {
				return nil, err
			}
			vm.SetStorage(nfs)
			if ib {
				if err := vm.AttachBootHCA(); err != nil {
					return nil, err
				}
			}
			if _, err := vm.Memory().AddRegion("data", fleetDataGB*hw.GB, 0, 0); err != nil {
				return nil, err
			}
			gang = append(gang, vm)
		}
		vms = append(vms, gang)
	}
	d.Epoch = k.RunUntil(fabric.DefaultIBTrainingTime + sim.Second)

	// One MPI job + orchestrator per gang, all sharing the retry policy
	// and the spare pool.
	pol := ninja.DefaultRetryPolicy()
	d.AppEnds = make([]sim.Time, cfg.Jobs)
	for j := 0; j < cfg.Jobs; j++ {
		job, err := mpi.NewJob(k, mpi.Config{
			VMs: vms[j], RanksPerVM: 1, ContinueLikeRestart: true,
		})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("job%02d", j)
		d.Jobs = append(d.Jobs, &fleet.Job{
			Name:      name,
			Orch:      ninja.New(job, ninja.Options{Retry: &pol, Spares: d.Spares}),
			IBCapable: j%2 == 0,
		})
		d.Apps = append(d.Apps, job.Launch(name, func(p *sim.Proc, rk *mpi.Rank) {
			rk.ComputeLoop(p, fleetAppIters, 0.2)
			d.AppEnds[j] = max(d.AppEnds[j], p.Now())
		}))
	}
	return d, nil
}

// FleetScenario is one matrix cell: the directive kind, the policy pair,
// and the fault switches.
type FleetScenario struct {
	// Kind selects the directive (zero value = Evacuate).
	Kind      fleet.DirectiveKind
	Placement fleet.PlacementPolicy
	Seq       fleet.SeqPolicy
	// Mode selects the transfer mechanism (zero value = Live). RDMANative
	// migrates IB-capable jobs by QP checkpoint/replay — no hotplug, no
	// link retraining — with per-VM demotion to the hotplug rung on replay
	// faults; the sequencer prices those jobs without the fixed terms.
	Mode ninja.Mode
	// MaxInFlight caps jobs migrating concurrently per rolling-maintenance
	// mini-plan.
	MaxInFlight int
	// ReturnHome makes the evacuation bidirectional: the whole source site
	// crashes just before the trigger and restores 300 s later, so the
	// fleet evacuates the failed site and then migrates every job back to
	// its original node.
	ReturnHome bool
	// Faulted crashes a planned destination of the final batch shortly
	// after the directive starts, exercising the executor's replanning.
	Faulted bool
	// ForcedRollback kills job00's migration at the first precopy pass
	// until its ninja retry budget is spent, forcing a rollback-in-place
	// the executor must re-queue into a fresh batch.
	ForcedRollback bool
	// ExtraFaults, when non-nil, is an additional fault plan armed over
	// the whole deployment (every fleet VM, every node of every site, and
	// the shared NFS) with spec At times relative to the directive
	// trigger. This is the Monte Carlo sweep hook: simfarm materializes a
	// seeded plan per cell and injects it here. The plan's own Seed drives
	// any empty-target victim selection inside the faults package.
	ExtraFaults *faults.Plan
}

// Label renders "swap/batched(cap=4)"-style identifiers.
func (sc FleetScenario) Label() string {
	var l string
	if sc.Kind == fleet.RollingMaintenance {
		l = fmt.Sprintf("rolling(cap=%d)/%s", sc.MaxInFlight, sc.Placement)
		if sc.Seq.Mode == fleet.SeqMaxFlow {
			l += "/maxflow"
		}
	} else {
		l = sc.Placement.String() + "/" + sc.Seq.String()
	}
	switch sc.Mode {
	case ninja.RDMANative:
		l += "+rdma"
	case ninja.Cold:
		l += "+cold"
	}
	if sc.ReturnHome {
		l += "+return"
	}
	if sc.Faulted {
		l += "+crash"
	}
	if sc.ForcedRollback {
		l += "+rollback"
	}
	if sc.ExtraFaults != nil && sc.ExtraFaults.Name != "" {
		l += "+plan:" + sc.ExtraFaults.Name
	}
	return l
}

// FleetRow is one matrix row's result.
type FleetRow struct {
	Scenario string
	Jobs     int
	Batches  int
	// Score is the placement's aggregate interconnect-affinity score.
	Score int
	// IBJobsOnIB counts IB-capable jobs whose guests still have usable
	// InfiniBand after landing (the placement quality ground truth).
	IBJobsOnIB int
	IBJobs     int
	Predicted  sim.Time // sequencer's contention-model makespan estimate
	Makespan   sim.Time // measured directive wall time
	Downtime   sim.Time // summed per-job service interruption
	Deadline   bool
	Replans    int
	Requeues   int
	Outcomes   string
	// Stats is the kernel's scheduler counters after the run (not
	// rendered); a rerun of the row must reproduce them exactly.
	Stats sim.Stats
}

// FleetResult pairs the row with the raw report for tests.
type FleetResult struct {
	Row    FleetRow
	Plan   *fleet.Plan
	Report fleet.Report
	// AppEnds is the instant each job's application finished.
	AppEnds []sim.Time
}

// RunFleetScenario deploys a fresh fleet, plans the directive over dc0
// under the scenario's policies, runs it, and reports. The deadline is
// fixed per directive shape (400 s for a plain evacuation, 800 s for a
// bidirectional one, 1200 s for a rolling drain) so rows within a shape
// are comparable.
func RunFleetScenario(cfg FleetConfig, sc FleetScenario) (*FleetResult, error) {
	return RunFleetScenarioWith(cfg, sc, nil)
}

// RunFleetScenarioWith is RunFleetScenario with a live tap on the
// executor's event trail: sink (if non-nil) observes every metrics.Event
// as it is recorded, in simulation order, before the run completes. The
// run itself is unchanged — a nil and a non-nil sink produce byte-
// identical results, which is what lets ninjad stream progress without
// perturbing the determinism its crash-recovery proof depends on.
func RunFleetScenarioWith(cfg FleetConfig, sc FleetScenario, sink func(metrics.Event)) (*FleetResult, error) {
	cfg = cfg.withDefaults()
	d, err := DeployFleet(cfg)
	if err != nil {
		return nil, err
	}
	// Unwind parked processes (wedged apps, abandoned waiters) on every
	// exit path: a Monte Carlo sweep runs hundreds of scenarios in one
	// process, and each leaked proc goroutine would otherwise outlive its
	// run. Close is a no-op on the happy path where everything exited.
	defer d.K.Close()
	trigger := d.Epoch + 5*sim.Second
	deadline := trigger + 400*sim.Second
	switch {
	case sc.Kind == fleet.RollingMaintenance:
		deadline = trigger + 1200*sim.Second
	case sc.ReturnHome:
		deadline = trigger + 800*sim.Second
	}
	dir := fleet.Directive{
		Kind:        sc.Kind,
		Source:      d.Source,
		Deadline:    deadline,
		MaxInFlight: sc.MaxInFlight,
		ReturnHome:  sc.ReturnHome,
	}
	model := fleet.CostModel{RDMANative: sc.Mode == ninja.RDMANative}
	planner := &fleet.Planner{Topo: d.Topo, Placement: sc.Placement, Seq: sc.Seq, Model: model}
	plan, err := planner.Plan(dir, d.Jobs)
	if err != nil {
		return nil, err
	}

	ex := fleet.NewExecutor(d.K, plan, fleet.Options{
		Topo:      d.Topo,
		Placement: sc.Placement,
		Replan:    true,
		Mode:      sc.Mode,
		Model:     model,
	})
	if sink != nil {
		ex.Events().SetNotify(sink)
	}
	logInjection := func(kind, subject, detail string) {
		ex.Events().Record(metrics.EventFaultInjected, kind, subject, detail)
	}
	if sc.Faulted && len(plan.Seq.Batches) > 0 {
		// Crash the first planned destination of the final batch while the
		// first batch is still in flight: the fleet must notice before
		// launching the victim's batch and re-place it.
		last := plan.Seq.Batches[len(plan.Seq.Batches)-1]
		victim := last[0].Dsts[0]
		inj := faults.NewInjector(d.K, faults.Plan{
			Name: "fleet-dst-crash", Seed: 1,
			Specs: []faults.Spec{{
				Kind: faults.KindNodeCrash, Target: victim.Name, At: trigger + 5*sim.Second,
			}},
		}, faults.Env{Nodes: []*hw.Node{victim}, Log: logInjection})
		if err := inj.Arm(); err != nil {
			return nil, err
		}
	}
	if sc.ReturnHome {
		// The whole source site goes dark just before the trigger and comes
		// back 300 s later. Failed nodes only refuse inbound migrations, so
		// the fleet evacuates off the dead site, waits out the outage, and
		// migrates everyone home.
		var specs []faults.Spec
		for _, n := range d.Source.Nodes {
			specs = append(specs, faults.Spec{
				Kind: faults.KindNodeCrash, Target: n.Name,
				At: trigger - 2*sim.Second, For: 300 * sim.Second,
			})
		}
		inj := faults.NewInjector(d.K, faults.Plan{
			Name: "fleet-site-outage", Seed: 1, Specs: specs,
		}, faults.Env{Nodes: d.Source.Nodes, Log: logInjection})
		if err := inj.Arm(); err != nil {
			return nil, err
		}
	}
	if sc.ExtraFaults != nil {
		// The sweep hook: shift the plan's trigger-relative times to
		// absolute simulated time and arm it over the whole deployment.
		plan := faults.Plan{Name: sc.ExtraFaults.Name, Seed: sc.ExtraFaults.Seed}
		for _, s := range sc.ExtraFaults.Specs {
			s.At += trigger
			plan.Specs = append(plan.Specs, s)
		}
		var nodes []*hw.Node
		for _, s := range d.Topo.Sites {
			nodes = append(nodes, s.Nodes...)
		}
		nodes = append(nodes, d.SpareNodes...)
		inj := faults.NewInjector(d.K, plan, faults.Env{
			VMs: d.VMs(), Nodes: nodes, Store: d.NFS, Log: logInjection,
		})
		if err := inj.Arm(); err != nil {
			return nil, err
		}
	}
	if sc.ForcedRollback {
		// Kill job00's migration at the first precopy pass on every ninja
		// attempt (Count = the retry budget): the first executor attempt
		// ends in a rollback-in-place, which the executor must re-queue;
		// the fault budget is spent by then, so the re-queued attempt lands.
		pol := ninja.DefaultRetryPolicy()
		inj := faults.NewInjector(d.K, faults.Plan{
			Name: "fleet-forced-rollback", Seed: 1,
			Specs: []faults.Spec{{
				Kind: faults.KindMigrateAbort, Target: "j00v00",
				At: trigger, Pass: 1, Count: pol.MaxAttempts,
			}},
		}, faults.Env{VMs: d.VMs(), Log: logInjection})
		if err := inj.Arm(); err != nil {
			return nil, err
		}
	}

	var rep fleet.Report
	var fut *sim.Future[fleet.Report]
	d.K.Go("fleet-driver", func(p *sim.Proc) {
		if trigger > p.Now() {
			p.Sleep(trigger - p.Now())
		}
		f, err2 := ex.Start()
		if err2 != nil {
			panic(err2) // Start on a fresh executor cannot fail
		}
		fut = f
	})
	d.K.Run()
	if fut == nil || !fut.Done() {
		return nil, fmt.Errorf("experiments: fleet %s: directive incomplete", sc.Label())
	}
	rep = fut.Value()
	for i, app := range d.Apps {
		if !app.Done() {
			return nil, fmt.Errorf("experiments: fleet %s: job %d wedged", sc.Label(), i)
		}
	}
	if failed := rep.Failed(); len(failed) > 0 {
		return nil, fmt.Errorf("experiments: fleet %s: job %s failed: %v",
			sc.Label(), failed[0].Job.Name, failed[0].Err)
	}

	row := FleetRow{
		Scenario:  sc.Label(),
		Jobs:      len(d.Jobs),
		Batches:   len(plan.Seq.Batches),
		Score:     fleet.ScoreAll(plan.Assignments),
		Predicted: plan.Seq.Predicted,
		Makespan:  rep.Makespan,
		Downtime:  rep.Downtime,
		Deadline:  rep.DeadlineMet,
		Replans:   rep.Replans,
		Requeues:  rep.Requeues,
		Outcomes:  rep.OutcomeCounts(),
		Stats:     d.K.Stats(),
	}
	if sc.Kind == fleet.RollingMaintenance {
		// Rolling plans are placed and sequenced incrementally: count the
		// mini-plans' batches instead of the (empty) up-front sequence.
		for _, dr := range rep.Drains {
			row.Batches += dr.Batches
		}
	}
	for _, j := range d.Jobs {
		if !j.IBCapable {
			continue
		}
		row.IBJobs++
		onIB := true
		for _, vm := range j.VMs() {
			if !vm.Guest().IBUsable() {
				onIB = false
			}
		}
		if onIB {
			row.IBJobsOnIB++
		}
	}
	return &FleetResult{Row: row, Plan: plan, Report: rep, AppEnds: d.AppEnds}, nil
}

// ExtFleetScenarios is the directive × policy matrix: both placements
// under both sequencers, the faulted run on the strongest pair, then the
// extension directives — a rolling drain of dc0 (capped jobs-in-flight)
// and a bidirectional evacuation through a 300 s site outage.
//
// seqMode fleet.SeqMaxFlow swaps the batched rows for uncapped
// time-expanded max-flow rounds and keeps the two capped LPT rows as the
// reference they are read against; any other value returns the default
// LPT matrix unchanged.
func ExtFleetScenarios(drainCap int, seqMode string) []FleetScenario {
	if seqMode == fleet.SeqMaxFlow {
		mf := fleet.SeqPolicy{Batched: true, Mode: fleet.SeqMaxFlow}
		return []FleetScenario{
			{Placement: fleet.PlaceGreedy, Seq: fleet.SeqPolicy{Batched: true, Cap: 4}},
			{Placement: fleet.PlaceSwap, Seq: fleet.SeqPolicy{Batched: true, Cap: 4}},
			{Placement: fleet.PlaceGreedy, Seq: mf},
			{Placement: fleet.PlaceSwap, Seq: mf},
			{Placement: fleet.PlaceSwap, Seq: mf, Faulted: true},
			{Placement: fleet.PlaceSwap, Seq: mf, Mode: ninja.RDMANative},
			{Kind: fleet.RollingMaintenance, Placement: fleet.PlaceSwap,
				Seq: fleet.SeqPolicy{Mode: fleet.SeqMaxFlow}, MaxInFlight: drainCap},
			{Placement: fleet.PlaceSwap, Seq: mf, ReturnHome: true},
		}
	}
	return []FleetScenario{
		{Placement: fleet.PlaceGreedy, Seq: fleet.SeqPolicy{}},
		{Placement: fleet.PlaceSwap, Seq: fleet.SeqPolicy{}},
		{Placement: fleet.PlaceGreedy, Seq: fleet.SeqPolicy{Batched: true, Cap: 4}},
		{Placement: fleet.PlaceSwap, Seq: fleet.SeqPolicy{Batched: true, Cap: 4}},
		{Placement: fleet.PlaceSwap, Seq: fleet.SeqPolicy{Batched: true, Cap: 4}, Faulted: true},
		{Placement: fleet.PlaceSwap, Seq: fleet.SeqPolicy{Batched: true, Cap: 4}, Mode: ninja.RDMANative},
		{Kind: fleet.RollingMaintenance, Placement: fleet.PlaceSwap, MaxInFlight: drainCap},
		{Placement: fleet.PlaceSwap, Seq: fleet.SeqPolicy{Batched: true, Cap: 4}, ReturnHome: true},
	}
}

// ExtFleetMatrix runs the full fleet directive × policy × fault matrix
// under seqMode (see ExtFleetScenarios). ctx is checked between
// scenarios (a scenario, once started, runs to completion — the
// simulation has no wall-clock blocking inside it), and a cancelled run
// returns the rows finished so far alongside ctx.Err().
func ExtFleetMatrix(ctx context.Context, cfg FleetConfig, seqMode string) ([]FleetRow, error) {
	var rows []FleetRow
	for _, sc := range ExtFleetScenarios(fleetDrainCap, seqMode) {
		if err := ctx.Err(); err != nil {
			return rows, err
		}
		res, err := RunFleetScenario(cfg, sc)
		if err != nil {
			return rows, err
		}
		rows = append(rows, res.Row)
	}
	return rows, nil
}

// ExtFleetRender formats the fleet evacuation matrix.
func ExtFleetRender(rows []FleetRow) *metrics.Table {
	t := metrics.NewTable("Ext. — fleet evacuation: placement × sequencing matrix",
		"policy", "jobs", "batches", "score", "ib-jobs-on-ib",
		"predicted [s]", "makespan [s]", "downtime [s]", "deadline", "replans", "requeues", "outcomes")
	for _, r := range rows {
		deadline := "hit"
		if !r.Deadline {
			deadline = "MISS"
		}
		t.AddRow(r.Scenario, r.Jobs, r.Batches, r.Score,
			fmt.Sprintf("%d/%d", r.IBJobsOnIB, r.IBJobs),
			r.Predicted, r.Makespan, r.Downtime, deadline, r.Replans, r.Requeues, r.Outcomes)
	}
	return t
}

// FleetEventsSummary renders the replan/batch trail of a report, for the
// example walkthrough.
func FleetEventsSummary(rep fleet.Report) string {
	var b strings.Builder
	for _, e := range rep.Events {
		b.WriteString(e.String())
		b.WriteString("\n")
	}
	return b.String()
}
