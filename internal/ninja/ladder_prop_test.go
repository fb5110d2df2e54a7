package ninja

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vmm"
)

// This file is the property-test lockdown of the degradation ladder: a
// seeded fault-plan × mode matrix is run to completion twice, and every
// run must (a) terminate — the MPI app finishes all iterations, no wedge,
// (b) land on exactly one ladder rung out of {rdma-native, hotplug, tcp,
// rollback} with an internally consistent Report, and (c) produce a
// byte-identical fingerprint, kernel event counts included, on the rerun
// and against the cell's block in testdata/ladder.golden.

// ladderPlan is one cell of the matrix.
type ladderPlan struct {
	name   string
	nVMs   int
	mode   int  // 0 RDMAMigrate, 1 Migrate, 2 MigratePolicy(AttachNever), 3 ColdMigrate
	dst    int  // 0 cross IB→IB, 1 IB→Ethernet, 2 self-migration
	policy bool // DefaultRetryPolicy vs nil (fail-fast)
	fault  int  // ladderFault* below
	spare  bool // one healthy spare node beside the destinations
}

const (
	ladderFaultNone        = iota
	ladderFaultStallShort  // resync stall under the window: top rung, just slower
	ladderFaultStallLong   // resync stall past the window: demotes to hotplug
	ladderFaultStaleQP     // source QP state stale at replay: demotes to hotplug
	ladderFaultHCAMismatch // destination rejects foreign QP state: demotes
	ladderFaultTrainStall  // destination link training stalls: degrades to tcp
	ladderFaultDstCrash    // destination node dies: rollback in place
	ladderFaultCount       // the seeded sweep draws from the faults above

	// Hand-picked cells only: VM 0's first transfer attempt fails (a
	// dropped precopy socket, or an NFS outage that ends before the retry
	// for cold), or every attempt fails until the budget runs out.
	ladderFaultTransferOnce
	ladderFaultTransferAlways
)

var ladderModeNames = [...]string{"rdma", "live", "attach-never", "cold"}
var ladderDstNames = [...]string{"ib", "eth", "self"}
var ladderFaultNames = [...]string{"none", "stall-short", "stall-long", "stale-qp", "hca-mismatch", "train-stall", "dst-crash"}

// ladderPlanFromSeed derives a matrix cell deterministically from a seed
// (math/rand's generator sequence is stable across platforms and releases).
func ladderPlanFromSeed(seed int64) ladderPlan {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	pl := ladderPlan{
		nVMs:   1 + rng.Intn(3),
		mode:   rng.Intn(4),
		dst:    rng.Intn(3),
		policy: rng.Intn(2) == 0,
		fault:  rng.Intn(ladderFaultCount),
	}
	if pl.fault == ladderFaultDstCrash && pl.dst == 2 {
		// Crashing the node a VM self-migrates onto kills the job, not the
		// migration; redirect the crash at a real destination.
		pl.dst = 1
	}
	pl.name = fmt.Sprintf("seed%d-%s-%s-%s", seed,
		ladderModeNames[pl.mode], ladderDstNames[pl.dst], ladderFaultNames[pl.fault])
	if pl.policy {
		pl.name += "-retry"
	}
	return pl
}

// ladderRun executes one cell and returns (fingerprint, terminal rung).
// All single-run properties are asserted inside.
func ladderRun(t *testing.T, pl ladderPlan) (string, RungMode) {
	t.Helper()
	r := newRig(t, pl.nVMs, 1, true)
	if pl.policy {
		pol := DefaultRetryPolicy()
		r.orch.opts.Retry = &pol
	}

	var dsts []*hw.Node
	switch pl.dst {
	case 0: // cross-cluster IB→IB
		dsts = make([]*hw.Node, pl.nVMs)
		for i := range dsts {
			dsts[i] = r.ib.Nodes[pl.nVMs+i]
		}
	case 1:
		dsts = r.ethDsts(pl.nVMs)
	default:
		dsts = r.ibDsts(pl.nVMs) // current nodes: self-migration
	}
	if pl.spare {
		spare := r.ib.Nodes[pl.nVMs] // next to the self-migration targets
		switch pl.dst {
		case 0:
			spare = r.ib.Nodes[2*pl.nVMs]
		case 1:
			spare = r.eth.Nodes[pl.nVMs]
		}
		r.orch.opts.Spares = &testSpares{nodes: []*hw.Node{spare}}
	}

	// Arm the fault before the run; every arm is a one-shot consumed (or
	// harmlessly ignored) by the first operation that reaches it.
	srcHCA := r.ib.Nodes[0].HCA
	dstHCA := dsts[0].HCA
	switch pl.fault {
	case ladderFaultStallShort:
		if dstHCA != nil {
			dstHCA.InjectResyncStall(sim.Second)
		}
	case ladderFaultStallLong:
		if dstHCA != nil {
			dstHCA.InjectResyncStall(10 * sim.Second)
		}
	case ladderFaultStaleQP:
		srcHCA.InjectStaleQPState()
	case ladderFaultHCAMismatch:
		if dstHCA != nil {
			dstHCA.InjectHCAMismatch()
		}
	case ladderFaultTrainStall:
		if dstHCA != nil {
			dstHCA.InjectTrainingStall(200 * sim.Second)
		}
	case ladderFaultDstCrash:
		dsts[0].Fail()
	case ladderFaultTransferOnce, ladderFaultTransferAlways:
		once := pl.fault == ladderFaultTransferOnce
		if pl.mode == 3 {
			r.nfs.SetOffline(true)
			if once {
				r.k.Go("nfs-restore", func(p *sim.Proc) {
					p.Sleep(62 * sim.Second)
					r.nfs.SetOffline(false)
				})
			}
			break
		}
		fired := false
		r.vms[0].SetFaultHooks(&vmm.FaultHooks{
			MigrationPass: func(v *vmm.VM, pass int) error {
				if once && fired {
					return nil
				}
				fired = true
				return fmt.Errorf("test: socket dropped at precopy pass %d", pass)
			},
		})
	}

	const iters = 30
	app := r.runApp(t, iters)
	var rep Report
	var migErr error
	r.k.Go("driver", func(p *sim.Proc) {
		p.Sleep(2 * sim.Second)
		switch pl.mode {
		case 0:
			rep, migErr = r.orch.RDMAMigrate(p, dsts)
		case 1:
			rep, migErr = r.orch.Migrate(p, dsts)
		case 2:
			rep, migErr = r.orch.MigratePolicy(p, dsts, AttachNever)
		default:
			rep, migErr = r.orch.ColdMigrate(p, dsts)
		}
	})
	r.k.Run()

	// Property 1 — no wedge: the kernel drained and every rank finished
	// every iteration, migration failed or not.
	if !app.Done() {
		t.Errorf("%s: app wedged", pl.name)
	}
	for rk, n := range r.iters {
		if n != iters {
			t.Errorf("%s: rank %d completed %d/%d iterations", pl.name, rk, n, iters)
		}
	}

	// Property 2 — the run landed on exactly one ladder rung, and a failed
	// run is always the bottom one.
	switch rep.Mode {
	case ModeRDMANative, ModeHotplug, ModeTCP, ModeRollback:
	default:
		t.Errorf("%s: terminal rung %q not on the ladder", pl.name, rep.Mode)
	}
	if migErr != nil && rep.Mode != ModeRollback {
		t.Errorf("%s: failed run (%v) on rung %q, want rollback", pl.name, migErr, rep.Mode)
	}

	// Property 3 — Report consistency: no negative spans, components do not
	// exceed the total, per-VM counters in range, top rung implies no
	// hotplug work.
	spans := []struct {
		name string
		v    sim.Time
	}{
		{"coordination", rep.Coordination}, {"detach", rep.Detach}, {"migration", rep.Migration},
		{"attach", rep.Attach}, {"linkup", rep.Linkup}, {"total", rep.Total},
	}
	var sum sim.Time
	for _, s := range spans {
		if s.v < 0 {
			t.Errorf("%s: %s = %v, negative", pl.name, s.name, s.v)
		}
		if s.name != "total" {
			sum += s.v
		}
	}
	if sum > rep.Total {
		t.Errorf("%s: component sum %v exceeds total %v", pl.name, sum, rep.Total)
	}
	if rep.RDMADemoted < 0 || rep.RDMADemoted > pl.nVMs {
		t.Errorf("%s: RDMADemoted = %d with %d VMs", pl.name, rep.RDMADemoted, pl.nVMs)
	}
	if rep.DegradedToTCP < 0 || rep.DegradedToTCP > pl.nVMs {
		t.Errorf("%s: DegradedToTCP = %d with %d VMs", pl.name, rep.DegradedToTCP, pl.nVMs)
	}
	if rep.Mode == ModeRDMANative {
		if rep.RDMADemoted != 0 || rep.Detach != 0 || rep.Attach != 0 {
			t.Errorf("%s: rdma-native rung with demoted=%d detach=%v attach=%v",
				pl.name, rep.RDMADemoted, rep.Detach, rep.Attach)
		}
	}

	// Fingerprint: everything observable about the run, rendered to a
	// string. Compared byte-for-byte across reruns.
	var fp strings.Builder
	fmt.Fprintf(&fp, "mode=%s outcome=%s err=%v demoted=%d retries=%d spares=%d degraded=%d\n",
		rep.Mode, rep.Outcome, migErr, rep.RDMADemoted, rep.Retries, rep.SparesUsed, rep.DegradedToTCP)
	fmt.Fprintf(&fp, "coord=%v detach=%v mig=%v attach=%v linkup=%v total=%v events=%d\n",
		rep.Coordination, rep.Detach, rep.Migration, rep.Attach, rep.Linkup, rep.Total, len(rep.Events))
	for _, e := range rep.Events {
		fmt.Fprintf(&fp, "  %d %s %q %q %q\n", int64(e.At), e.Kind, e.Phase, e.Subject, e.Detail)
	}
	fmt.Fprintf(&fp, "vmstats nil=%v len=%d coldstats nil=%v len=%d\n",
		rep.VMStats == nil, len(rep.VMStats), rep.ColdStats == nil, len(rep.ColdStats))
	for _, st := range rep.VMStats {
		rdma := "nil"
		if q := st.RDMA; q != nil {
			rdma = fmt.Sprintf("{qps=%d snap=%d resync=%d demoted=%v reason=%q}",
				q.QPs, q.SnapshotBytes, int64(q.Resync), q.Demoted, q.DemoteReason)
		}
		fmt.Fprintf(&fp, "  mig %s->%s start=%d dur=%d down=%d iters=%d scanned=%g wire=%g logical=%g err=%v rdma=%s\n",
			st.From, st.To, int64(st.Start), int64(st.Duration), int64(st.Downtime), st.Iterations,
			st.ScannedBytes, st.WireBytes, st.LogicalBytes, st.Err, rdma)
	}
	for _, st := range rep.ColdStats {
		fmt.Fprintf(&fp, "  cold %s->%s image=%g save=%d restore=%d\n",
			st.From, st.To, st.ImageBytes, int64(st.SaveTime), int64(st.RestoreTime))
	}
	for i, vm := range r.vms {
		fmt.Fprintf(&fp, "vm%d@%s ", i, vm.Node().Name)
	}
	if pl.nVMs > 1 {
		name, _ := r.job.Rank(0).TransportTo(1)
		fmt.Fprintf(&fp, "transport=%s", name)
	}
	fmt.Fprintf(&fp, " end=%v stats=%+v\n", r.k.Now(), r.k.Stats())
	return fp.String(), rep.Mode
}

// TestLadderPropertyMatrix runs four hand-picked cells that pin one rung
// each, nine that drive the per-VM transfer retry of each transfer mode
// (live, RDMA-native, cold) through a retry that succeeds, a budget that
// runs out and a spare substitution, plus a seeded random sweep, each run
// twice.
func TestLadderPropertyMatrix(t *testing.T) {
	plans := []ladderPlan{
		{name: "pin-rdma-native", nVMs: 2, mode: 0, dst: 0, policy: true, fault: ladderFaultNone},
		{name: "pin-hotplug", nVMs: 2, mode: 0, dst: 0, policy: true, fault: ladderFaultStaleQP},
		{name: "pin-tcp", nVMs: 2, mode: 1, dst: 1, policy: true, fault: ladderFaultNone},
		{name: "pin-rollback", nVMs: 2, mode: 1, dst: 1, policy: false, fault: ladderFaultDstCrash},
	}
	for _, m := range []struct {
		name      string
		mode, dst int
	}{{"live", 1, 1}, {"rdma", 0, 0}, {"cold", 3, 1}} {
		plans = append(plans,
			ladderPlan{name: m.name + "-retry-ok", nVMs: 2, mode: m.mode, dst: m.dst, policy: true, fault: ladderFaultTransferOnce},
			ladderPlan{name: m.name + "-retry-exhausted", nVMs: 2, mode: m.mode, dst: m.dst, policy: true, fault: ladderFaultTransferAlways},
			ladderPlan{name: m.name + "-spare", nVMs: 2, mode: m.mode, dst: m.dst, policy: true, fault: ladderFaultDstCrash, spare: true})
	}
	for seed := int64(0); seed < 10; seed++ {
		plans = append(plans, ladderPlanFromSeed(seed))
	}
	golden := ladderGolden(t)

	seen := map[RungMode]string{}
	for _, pl := range plans {
		pl := pl
		t.Run(pl.name, func(t *testing.T) {
			fp1, rung := ladderRun(t, pl)
			fp2, _ := ladderRun(t, pl)
			if fp1 != fp2 {
				t.Errorf("rerun fingerprints diverge:\nrun 1: %srun 2: %s", fp1, fp2)
			}
			if want := golden[pl.name]; fp1 != want {
				t.Errorf("fingerprint differs from testdata/ladder.golden:\n got: %swant: %s", fp1, want)
			}
			seen[rung] = pl.name
		})
	}
	for _, rung := range []RungMode{ModeRDMANative, ModeHotplug, ModeTCP, ModeRollback} {
		if _, ok := seen[rung]; !ok {
			t.Errorf("matrix never terminated on rung %q", rung)
		}
	}
}

// ladderGolden reads testdata/ladder.golden: one "== <cell name>" line
// followed by that cell's fingerprint, per cell.
func ladderGolden(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "ladder.golden"))
	if err != nil {
		t.Fatal(err)
	}
	cells := map[string]string{}
	for _, block := range strings.Split(string(b), "== ")[1:] {
		name, fp, _ := strings.Cut(block, "\n")
		cells[name] = fp
	}
	return cells
}
