package churn

import (
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Every engine handler in this package's tests audits the books as it
// returns.
func TestMain(m *testing.M) {
	checkBooks = true
	os.Exit(m.Run())
}

// rig is one churn deployment: an IB site and an Ethernet site of
// nodes nodes each over a fresh kernel. The IB site comes first in
// candidate order, so the greedy baseline burns IB slots on whatever
// arrives first.
type rig struct {
	k    *sim.Kernel
	topo *fleet.Topology
}

func newRig(nodes int, nfs float64) *rig {
	k := sim.NewKernel()
	tb := hw.NewTestbed(k)
	ib := tb.AddCluster("ib", nodes, hw.AGCNodeSpec)
	ethSpec := hw.AGCNodeSpec
	ethSpec.IBBandwidth = 0
	eth := tb.AddCluster("eth", nodes, ethSpec)
	topo := fleet.NewTopology(
		&fleet.Site{Name: "ib", Nodes: ib.Nodes, SlotsPerNode: 2, WANBandwidth: 1.25e9},
		&fleet.Site{Name: "eth", Nodes: eth.Nodes, SlotsPerNode: 2, WANBandwidth: 1.25e9},
	)
	topo.NFSBandwidth = nfs
	return &rig{k: k, topo: topo}
}

func defaultWorkload(seed int64) Workload {
	return Workload{
		Seed:         seed,
		Jobs:         48,
		ArrivalRate:  0.5,
		MeanLifetime: 90 * sim.Second,
		MaxVMs:       2,
		IBFraction:   0.5,
	}
}

// runOnce executes opts on a fresh rig and returns the report with the
// kernel's counters.
func runOnce(t *testing.T, opts Options) (Report, sim.Stats) {
	t.Helper()
	r := newRig(4, 0)
	defer r.k.Close()
	eng, err := New(r.k, r.topo, opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	rep := eng.Run()
	if !eng.Done().Done() {
		t.Fatalf("engine did not finish: %+v", rep)
	}
	return rep, r.k.Stats()
}

// runTwice runs opts twice and fails unless the reruns agree byte for
// byte, kernel counters included.
func runTwice(t *testing.T, opts Options) Report {
	t.Helper()
	a, sa := runOnce(t, opts)
	b, sb := runOnce(t, opts)
	if a.JSON() != b.JSON() {
		t.Fatalf("%v: rerun reports differ:\n%s\n%s", opts.Policy, a.JSON(), b.JSON())
	}
	if sa != sb {
		t.Fatalf("%v: rerun kernel stats differ: %+v vs %+v", opts.Policy, sa, sb)
	}
	return a
}

// The arrival schedule is a pure function of the workload spec: same
// seed, same schedule; the empirical arrival rate tracks the spec over
// many draws (a property of the exponential sampler, not of the
// engine).
func TestWorkloadScheduleDeterministicAndCalibrated(t *testing.T) {
	w := Workload{Seed: 7, Jobs: 4000, ArrivalRate: 2.0}
	a, b := w.schedule(), w.schedule()
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	span := a[len(a)-1].at.Seconds()
	got := float64(len(a)) / span
	if math.Abs(got-2.0) > 0.15 {
		t.Fatalf("empirical arrival rate %.3f/s, want ≈2/s", got)
	}
	other := Workload{Seed: 8, Jobs: 4000, ArrivalRate: 2.0}.schedule()
	same := true
	for i := range a {
		if a[i] != other[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// Lifetimes respect the configured bounds for every draw.
func TestWorkloadLifetimeBounds(t *testing.T) {
	w := Workload{Seed: 3, Jobs: 2000, MinLifetime: 20 * sim.Second, MaxLifetime: 40 * sim.Second}
	for _, a := range w.schedule() {
		if a.lifetime < 20*sim.Second || a.lifetime > 40*sim.Second {
			t.Fatalf("lifetime %v outside [20s, 40s]", a.lifetime)
		}
	}
}

// Repeated runs with the same seed are byte-identical under both
// policies, kernel event counts included (the engine consumes its PRNG
// before the clock starts); a different seed produces a different run.
func TestChurnSeedStability(t *testing.T) {
	for _, pol := range []Policy{PolicyGreedy, PolicySwap} {
		opts := Options{Workload: defaultWorkload(5), Policy: pol}
		a := runTwice(t, opts)
		opts.Workload.Seed = 6
		if c, _ := runOnce(t, opts); a.JSON() == c.JSON() {
			t.Fatalf("%v: different seeds produced byte-identical reports", pol)
		}
	}
}

// The adaptive destination-swap policy buys down the time-weighted
// affinity deficit relative to the greedy baseline — the subsystem's
// headline claim — and pays for it with migrations.
func TestSwapBeatsGreedyOnAffinityCost(t *testing.T) {
	greedy, _ := runOnce(t, Options{Workload: defaultWorkload(11), Policy: PolicyGreedy})
	swap, _ := runOnce(t, Options{Workload: defaultWorkload(11), Policy: PolicySwap})
	if greedy.SwapMigs != 0 {
		t.Fatalf("greedy executed %d swap migrations, want 0", greedy.SwapMigs)
	}
	if swap.CostIntegral >= greedy.CostIntegral {
		t.Fatalf("swap cost %.0f not below greedy cost %.0f", swap.CostIntegral, greedy.CostIntegral)
	}
	if swap.SwapMigs == 0 {
		t.Fatal("swap policy executed no corrective migrations on a mixed workload")
	}
}

// Every job reaches a terminal state and the books balance.
func TestChurnConservation(t *testing.T) {
	for _, pol := range []Policy{PolicyGreedy, PolicySwap} {
		rep, _ := runOnce(t, Options{Workload: defaultWorkload(2), Policy: pol})
		if rep.Arrived != 48 {
			t.Fatalf("%v: arrived %d, want 48", pol, rep.Arrived)
		}
		if rep.Departed+rep.Rejected != rep.Arrived {
			t.Fatalf("%v: departed %d + rejected %d != arrived %d", pol, rep.Departed, rep.Rejected, rep.Arrived)
		}
		if rep.Placed+rep.Rejected != rep.Arrived {
			t.Fatalf("%v: placed %d + rejected %d != arrived %d", pol, rep.Placed, rep.Rejected, rep.Arrived)
		}
	}
}

// A node crash evicts the jobs running there; the engine re-places them
// (counted as fault migrations) and the run still terminates
// deterministically.
func TestChurnNodeCrashEvictsAndReplaces(t *testing.T) {
	plan, err := faults.ParsePlan("node-crash@30s+120s:node=ib-n00")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	opts := Options{Workload: defaultWorkload(4), Policy: PolicySwap, Faults: plan}
	a := runTwice(t, opts)
	if a.Faults != 1 {
		t.Fatalf("faults fired %d, want 1", a.Faults)
	}
	if a.FaultMigs == 0 {
		t.Fatal("node crash at 30s evicted nobody — expected fault re-placements")
	}
	if a.Departed+a.Rejected != a.Arrived {
		t.Fatalf("faulted run leaked jobs: departed %d + rejected %d != arrived %d",
			a.Departed, a.Rejected, a.Arrived)
	}
	if a.Placed+a.Rejected != a.Arrived {
		t.Fatalf("faulted run counted jobs twice: placed %d + rejected %d != arrived %d",
			a.Placed, a.Rejected, a.Arrived)
	}
}

// A gang evicted by a node crash that then waits out its re-placement
// deadline is rejected, not placed: it leaves Placed for Rejected, so
// each arrival is counted once. Seeds 4 (swap) and 5 (greedy) with a
// 120 s crash of ib-n00 at 30 s each reject at least one evicted gang.
func TestChurnEvictedThenRejectedCountsOnce(t *testing.T) {
	plan, err := faults.ParsePlan("node-crash@30s+120s:node=ib-n00")
	if err != nil {
		t.Fatalf("ParsePlan: %v", err)
	}
	for _, c := range []struct {
		seed int64
		pol  Policy
	}{{4, PolicySwap}, {5, PolicyGreedy}} {
		evicted := map[string]bool{}
		evictedRejected := 0
		rep, _ := runOnce(t, Options{
			Workload: defaultWorkload(c.seed), Policy: c.pol, Faults: plan,
			Log: func(format string, args ...any) {
				var at, name, rest string
				line := fmt.Sprintf(format, args...)
				if _, err := fmt.Sscanf(line, "churn: %s job %s %s", &at, &name, &rest); err != nil {
					return
				}
				switch rest {
				case "evicted":
					evicted[name] = true
				case "rejected":
					if evicted[name] {
						evictedRejected++
					}
				}
			},
		})
		if evictedRejected == 0 {
			t.Fatalf("seed %d %v: no evicted gang missed its re-placement deadline; pick another seed", c.seed, c.pol)
		}
		if rep.Placed+rep.Rejected != rep.Arrived {
			t.Errorf("seed %d %v: placed %d + rejected %d != arrived %d (%d evicted gangs rejected)",
				c.seed, c.pol, rep.Placed, rep.Rejected, rep.Arrived, evictedRejected)
		}
	}
}

// Option validation rejects caller bugs with the typed error.
func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Workload: Workload{Jobs: -1}},
		{Workload: Workload{ArrivalRate: -0.5}},
		{Workload: Workload{IBFraction: 1.5}},
		{Workload: Workload{MinLifetime: 10 * sim.Second, MaxLifetime: 5 * sim.Second}},
	}
	for i, o := range bad {
		err := o.Validate()
		if err == nil {
			t.Errorf("case %d: invalid options accepted", i)
			continue
		}
		if _, ok := err.(*OptionsError); !ok {
			t.Errorf("case %d: error %T, want *OptionsError", i, err)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}

// Pricing: a swap migration between WAN-constrained sites crosses both
// uplinks; with a cold model and a priced NFS server it also crosses
// the storage link.
func TestMigrationPricingLinks(t *testing.T) {
	r := newRig(4, 1e9)
	defer r.k.Close()
	eng, err := New(r.k, r.topo, Options{Workload: defaultWorkload(1), Model: fleet.CostModel{Cold: true}})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Position 4 is the first Ethernet node, position 0 the first IB node.
	j := &job{name: "j", ib: true, vms: 1, nodes: []int{4}}
	mig := eng.migrationFor(j, []int{0})
	want := map[string]bool{"wan:ib": true, "wan:eth": true, "nfs:shared": true}
	if len(mig.Links) != len(want) {
		t.Fatalf("links %v, want %v", mig.Links, want)
	}
	for _, l := range mig.Links {
		if !want[l] {
			t.Fatalf("unexpected link %q in %v", l, mig.Links)
		}
	}
	if mig.Bytes != eng.opts.Workload.VMBytes {
		t.Fatalf("bytes %g, want one VM payload %g", mig.Bytes, eng.opts.Workload.VMBytes)
	}
}

// Regression for the eviction accounting bug: evictFrom used to release
// a gang's slots and memory back to *every* node it ran on, including
// the crashed one — so the dead node's books showed schedulable
// capacity while it was down, and a restore stacked the stale release
// on top of the reset. Capacity on failed hardware must be stranded
// until reinstate rebuilds the books from ground truth.
func TestEvictFromStrandsFailedCapacity(t *testing.T) {
	r := newRig(4, 0)
	defer r.k.Close()
	eng, err := New(r.k, r.topo, Options{Workload: defaultWorkload(1)})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// Positions 0 and 1 are the first two IB nodes.
	const bad, good = 0, 1
	j := &job{name: "gang", ib: true, vms: 2, lifetime: 60 * sim.Second, state: stateRunning, nodes: []int{bad, good}}
	eng.running = append(eng.running, j)
	eng.used[bad]++
	eng.used[good]++
	full := eng.capVMs[bad]
	if full != siteSlots(r.topo, eng.nodes[bad]) {
		t.Fatalf("setup: capacity %d VMs, want the site's %d slots", full, siteSlots(r.topo, eng.nodes[bad]))
	}

	eng.nodes[bad].Fail()
	eng.evictFrom(bad)

	// The crashed node's claim is stranded, not freed: its books still
	// show the evicted VM's slot and memory as taken. The buggy release
	// made this full again.
	if eng.used[bad] != 1 {
		t.Fatalf("claims on failed node = %d after eviction, want 1 (stranded)", eng.used[bad])
	}
	// The drain triggered by the eviction re-placed the gang, and only
	// on healthy nodes.
	if j.state != stateRunning {
		t.Fatalf("evicted gang not re-placed: state %v", j.state)
	}
	for _, d := range j.nodes {
		if d == bad || eng.nodes[d].Failed() {
			t.Fatalf("gang re-placed onto failed node %s", eng.nodes[d].Name)
		}
	}

	// Restore rebuilds the books from ground truth: no resident VMs on
	// the node, plus any relocation reservations still on the wire.
	eng.reserved[bad] = 1
	eng.nodes[bad].Restore()
	eng.reinstate(bad)
	if eng.used[bad] != 1 {
		t.Fatalf("claims after reinstate = %d, want 1 reservation", eng.used[bad])
	}
	eng.reserved[bad] = 0
	eng.reinstate(bad)
	if eng.used[bad] != 0 || eng.free(eng.used, bad) != full {
		t.Fatalf("claims/free after clean reinstate = %d/%d, want 0/%d", eng.used[bad], eng.free(eng.used, bad), full)
	}
}
