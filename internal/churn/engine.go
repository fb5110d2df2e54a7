package churn

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/faults"
	"repro/internal/fleet"
	"repro/internal/hw"
	"repro/internal/sim"
)

// jobState is where a churn job is in its lifecycle.
type jobState int

const (
	stateQueued jobState = iota
	stateRunning
	stateRejected
	stateDeparted
)

// job is one churn job: an abstract gang (no guest VMs are booted — the
// engine prices and times its migrations through the fleet sequencer,
// which only reads payload, fixed cost, rate and links).
type job struct {
	name     string
	seq      int // arrival index, the running list's order
	ib       bool
	vms      int
	lifetime sim.Time
	arrived  sim.Time // arrival (or re-queue-after-fault) instant
	state    jobState
	nodes    []int     // candidate positions, one entry per VM while running
	wait     sim.Time  // queue wait actually paid before placement
	departEv sim.Event // pending departure, cancelable on eviction
	deadline sim.Event // pending queue-deadline, cancelable on placement
	evicted  bool      // re-queued by a node fault at least once
}

// moveGroup is one atomic corrective move: either a single-gang
// relocation into free capacity (destination slots reserved while the
// plan is on the wire) or a pairwise destination exchange between two
// equal-shape gangs (net-zero per node, nothing to reserve). The group
// commits all-or-nothing — a half-applied exchange would corrupt the
// occupancy books.
type moveGroup struct {
	jobs     []*job
	dsts     [][]int // candidate positions, one list per job
	exchange bool
}

// miniPlan is one queued unit of migration work: a priced sequence plus
// the move groups to land when the wire time has elapsed.
type miniPlan struct {
	seq    fleet.Sequence
	groups []*moveGroup
}

// Engine runs one churn workload over a fleet topology on the shared
// DES kernel.
//
// The books are slices indexed by candidate position (site order, then
// node order). Every VM claims one slot and VMBytes of memory together,
// so one claim count per node stands for both: a node takes VM k+1 when
// used+k+1 <= capVMs, the same test as slots-used-k > 0 and
// (used+k+1)·VMBytes <= MemoryBytes (VMBytes is whole bytes, so the
// products are exact).
type Engine struct {
	k    *sim.Kernel
	topo *fleet.Topology
	opts Options

	nodes    []*hw.Node
	capVMs   []int    // VMs a node can hold: site slots capped by memory
	used     []int    // VMs resident or reserved, plus claims stranded on a down node
	reserved []int    // relocation reservations on the wire, per destination
	aff      [2][]int // fleet.Affinity per node, indexed by ibIndex
	order    [2][]int // placement order of the positions, indexed by ibIndex

	running []*job // placed jobs, arrival order
	queue   []*job // waiting for capacity, FIFO
	pending []*miniPlan
	wire    *miniPlan // the mini-plan holding the wire, nil when idle
	deficit int       // fleet-wide affinity deficit of the running jobs

	// proposeGroups' scratch: shadow books, gang locations and gains.
	shadow []int
	loc    [][]int
	gain   []int

	clock   sim.Time // last cost-integral checkpoint
	cost    float64  // ∫ fleet affinity deficit dt (points·seconds)
	rep     Report
	stopped bool
	done    *sim.Future[struct{}]
}

// checkBooks makes every engine event handler audit the books when it
// returns and panic on the first disagreement. The package's tests set
// it in TestMain.
var checkBooks bool

func ibIndex(ib bool) int {
	if ib {
		return 1
	}
	return 0
}

// New builds an engine over the topology. Sites are taken in topology
// order and nodes in site order. Greedy places in that order; swap
// places in a stable descending-affinity order of it, one per job
// capability. Affinity depends only on the capability and the node, so
// both orders are fixed for the engine's life.
func New(k *sim.Kernel, topo *fleet.Topology, opts Options) (*Engine, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	e := &Engine{k: k, topo: topo, opts: opts, done: sim.NewFuture[struct{}](k)}
	for _, s := range topo.Sites {
		for _, n := range s.Nodes {
			fit := 0
			for fit < siteSlots(topo, n) && float64(fit+1)*opts.Workload.VMBytes <= n.MemoryBytes {
				fit++
			}
			e.nodes = append(e.nodes, n)
			e.capVMs = append(e.capVMs, fit)
			e.aff[0] = append(e.aff[0], fleet.Affinity(false, n))
			e.aff[1] = append(e.aff[1], fleet.Affinity(true, n))
		}
	}
	if len(e.nodes) == 0 {
		return nil, fmt.Errorf("churn: topology has no nodes")
	}
	e.used = make([]int, len(e.nodes))
	e.reserved = make([]int, len(e.nodes))
	e.shadow = make([]int, len(e.nodes))
	for c, aff := range e.aff {
		order := make([]int, len(e.nodes))
		for i := range order {
			order[i] = i
		}
		if opts.Policy == PolicySwap {
			sort.SliceStable(order, func(a, b int) bool { return aff[order[a]] > aff[order[b]] })
		}
		e.order[c] = order
	}
	return e, nil
}

func siteSlots(topo *fleet.Topology, n *hw.Node) int {
	s := topo.SiteOf(n)
	if s == nil || s.SlotsPerNode < 1 {
		return 1
	}
	return s.SlotsPerNode
}

func (e *Engine) logf(format string, args ...any) {
	if e.opts.Log != nil {
		e.opts.Log(format, args...)
	}
}

// handle wraps an engine event handler for the kernel, auditing the
// books after it when checkBooks is set.
func (e *Engine) handle(fn func()) func() {
	if !checkBooks {
		return fn
	}
	return func() {
		fn()
		if err := e.audit(); err != nil {
			panic(fmt.Sprintf("churn: books at %v: %v", e.k.Now(), err))
		}
	}
}

// Run schedules the whole workload and drives the kernel until every
// job has departed or been rejected, then returns the report. The
// caller owns the kernel; Run uses k.Run, so no other open-ended procs
// should be left runnable.
func (e *Engine) Run() Report {
	e.Start()
	e.k.Run()
	return e.ReportNow()
}

// Start arms the workload on the kernel without driving it — for
// callers interleaving churn with other simulated activity. Done
// resolves when the run is complete.
func (e *Engine) Start() {
	sched := e.opts.Workload.schedule()
	e.rep.Policy = e.opts.Policy.String()
	e.rep.Seed = e.opts.Workload.Seed
	for i := range sched {
		a := sched[i]
		e.k.ScheduleAt(a.at, e.handle(func() { e.onArrival(a) }))
	}
	e.armFaults()
	if e.opts.Workload.Jobs == 0 {
		e.finish()
	}
}

// Done resolves once every job has departed or been rejected.
func (e *Engine) Done() *sim.Future[struct{}] { return e.done }

// armFaults schedules the plan's node-crash specs on the kernel.
// Targets name nodes; an empty target picks the first node. Kinds that
// need a guest VM or the shared store have nothing to bite on an
// abstract churn gang and are skipped with a log line.
func (e *Engine) armFaults() {
	for _, s := range e.opts.Faults.Specs {
		if s.Kind != faults.KindNodeCrash {
			e.logf("churn: skipping %s fault (no guest-level surface in the churn engine)", s.Kind)
			continue
		}
		i := e.pickNode(s.Target)
		if i < 0 {
			e.logf("churn: node-crash target %q not in topology; skipped", s.Target)
			continue
		}
		n := e.nodes[i]
		spec := s
		e.k.ScheduleAt(spec.At, e.handle(func() {
			n.Fail()
			e.rep.Faults++
			e.logf("churn: %v node %s down", e.k.Now(), n.Name)
			e.evictFrom(i)
		}))
		if spec.For > 0 {
			e.k.ScheduleAt(spec.At+spec.For, e.handle(func() {
				n.Restore()
				e.reinstate(i)
				e.logf("churn: %v node %s restored", e.k.Now(), n.Name)
				e.drainQueue()
				e.maybeSwap()
			}))
		}
	}
}

// pickNode returns the candidate position of the named node, -1 when
// the topology has none.
func (e *Engine) pickNode(target string) int {
	if target == "" {
		return 0
	}
	for i, n := range e.nodes {
		if n.Name == target {
			return i
		}
	}
	return -1
}

// onArrival admits one job: place it now or queue it under the
// placement deadline.
func (e *Engine) onArrival(a arrival) {
	j := &job{name: a.name, seq: e.rep.Arrived, ib: a.ib, vms: a.vms, lifetime: a.lifetime, arrived: e.k.Now()}
	e.rep.Arrived++
	if !e.place(j) {
		e.enqueue(j)
	}
	e.maybeSwap()
}

// enqueue parks an unplaceable job behind the placement deadline.
func (e *Engine) enqueue(j *job) {
	j.state = stateQueued
	e.queue = append(e.queue, j)
	jj := j
	j.deadline = e.k.Schedule(placeDeadline, e.handle(func() { e.onDeadline(jj) }))
}

// onDeadline rejects a job that waited out its placement deadline. A
// job evicted by a node crash was counted as placed when it first
// landed; rejecting it moves it from Placed to Rejected, so every
// arrival is counted exactly once.
func (e *Engine) onDeadline(j *job) {
	if j.state != stateQueued {
		return
	}
	e.removeQueued(j)
	j.state = stateRejected
	if j.evicted {
		e.rep.Placed--
	}
	e.rep.Rejected++
	e.logf("churn: %v job %s rejected after %v in queue", e.k.Now(), j.name, placeDeadline)
	e.checkDone()
}

// place tries to put the job's gang on nodes now. Greedy takes the
// first free slots in candidate order; swap takes the highest-affinity
// free slots. Returns false when capacity is short.
func (e *Engine) place(j *job) bool {
	dsts := e.findSlots(e.used, j)
	if dsts == nil {
		return false
	}
	e.accrue()
	for _, i := range dsts {
		e.used[i]++
	}
	j.nodes = dsts
	e.deficit += e.jobDeficit(j)
	j.state = stateRunning
	i, _ := slices.BinarySearchFunc(e.running, j.seq, bySeq)
	e.running = slices.Insert(e.running, i, j)
	j.wait = e.k.Now() - j.arrived
	j.deadline.Cancel()
	j.deadline = sim.Event{}
	e.rep.WaitTotal += j.wait
	if j.evicted {
		e.rep.FaultMigs++
		e.rep.MigBytes += float64(j.vms) * e.opts.Workload.VMBytes
	} else {
		e.rep.Placed++
		e.rep.waits = append(e.rep.waits, j.wait)
	}
	jj := j
	j.departEv = e.k.Schedule(j.lifetime, e.handle(func() { e.onDeparture(jj) }))
	return true
}

func bySeq(j *job, seq int) int { return cmp.Compare(j.seq, seq) }

// free is how many more VMs node i can take on the given books; none
// while it is down.
func (e *Engine) free(books []int, i int) int {
	if e.nodes[i].Failed() {
		return 0
	}
	return max(0, e.capVMs[i]-books[i])
}

// freeVMs is how many more VMs the healthy nodes can take on the given
// books.
func (e *Engine) freeVMs(books []int) int {
	n := 0
	for i := range e.nodes {
		n += e.free(books, i)
	}
	return n
}

// findSlots returns one candidate position per VM on the given books,
// nil when the gang does not fit. Each VM takes the first node in the
// job's placement order with room, so a node with several free slots
// may hold several of the gang's VMs. The gang fits exactly when
// j.vms <= freeVMs(books), whatever the order.
func (e *Engine) findSlots(books []int, j *job) []int {
	dsts := make([]int, 0, j.vms)
	for _, i := range e.order[ibIndex(j.ib)] {
		for k := e.free(books, i); k > 0 && len(dsts) < j.vms; k-- {
			dsts = append(dsts, i)
		}
		if len(dsts) == j.vms {
			return dsts
		}
	}
	return nil
}

// score sums the per-VM affinity of a gang of the given capability on
// the given positions.
func (e *Engine) score(ib bool, nodes []int) int {
	aff, s := e.aff[ibIndex(ib)], 0
	for _, i := range nodes {
		s += aff[i]
	}
	return s
}

// jobDeficit is a running job's share of the fleet affinity deficit.
func (e *Engine) jobDeficit(j *job) int {
	aff, d := e.aff[ibIndex(j.ib)], 0
	for _, i := range j.nodes {
		d += deficit(j.ib, aff[i])
	}
	return d
}

// unrun takes a running job off its nodes and out of the running list.
// Claims on a down node stay stranded until reinstate rebuilds its
// books.
func (e *Engine) unrun(j *job) {
	for _, i := range j.nodes {
		if !e.nodes[i].Failed() {
			e.used[i]--
		}
	}
	e.deficit -= e.jobDeficit(j)
	j.nodes = nil
	i, _ := slices.BinarySearchFunc(e.running, j.seq, bySeq)
	e.running = slices.Delete(e.running, i, i+1)
}

// onDeparture retires a job at end of life.
func (e *Engine) onDeparture(j *job) {
	if j.state != stateRunning {
		return
	}
	e.accrue()
	e.unrun(j)
	j.state = stateDeparted
	e.rep.Departed++
	e.drainQueue()
	e.maybeSwap()
	e.checkDone()
}

// drainQueue re-tries queued jobs in FIFO order after capacity frees
// up. Only a gang that fits the free VM count is tried, and it always
// lands, with its accumulated wait; jobs that still do not fit keep
// waiting (their deadline events are armed).
func (e *Engine) drainQueue() {
	free := e.freeVMs(e.used)
	still := e.queue[:0]
	for _, j := range e.queue {
		if j.state != stateQueued {
			continue
		}
		if j.vms <= free && e.place(j) {
			free -= j.vms
			continue
		}
		still = append(still, j)
	}
	clear(e.queue[len(still):])
	e.queue = still
	e.checkDone()
}

func (e *Engine) removeQueued(j *job) {
	for i, q := range e.queue {
		if q == j {
			e.queue = append(e.queue[:i], e.queue[i+1:]...)
			return
		}
	}
}

// evictFrom re-queues every running job with a VM on the failed node n.
// The gang's checkpoint survives on the shared store, so the job is not
// lost — it waits for re-placement like a fresh arrival, and the
// re-placement is counted as a fault migration.
//
// Capacity released by an eviction goes back only to healthy nodes: a
// VM's claim on failed hardware is stranded, not freed — dead nodes must
// not appear to hold schedulable slots while down. (findSlots skips
// Failed nodes as well, so this is defense-in-depth for the books
// themselves; pickNode only resolves fault targets and never places.)
// reinstate rebuilds the node's books from ground truth when it
// restores.
func (e *Engine) evictFrom(n int) {
	e.accrue()
	var hit []*job
	for _, j := range e.running {
		if slices.Contains(j.nodes, n) {
			hit = append(hit, j)
		}
	}
	for _, j := range hit {
		e.unrun(j)
		j.evicted = true
		j.arrived = e.k.Now()
		j.departEv.Cancel()
		j.departEv = sim.Event{}
		e.logf("churn: %v job %s evicted from %s", e.k.Now(), j.name, e.nodes[n].Name)
		e.enqueue(j)
	}
	if len(hit) > 0 {
		e.drainQueue()
		e.maybeSwap()
	}
}

// reinstate rebuilds a restored node's capacity books from ground truth.
// While the node was down, evicted occupants' claims were deliberately
// not released back to it (dead hardware holds no schedulable capacity),
// so the stale count is replaced wholesale: VMs still resident (none,
// after eviction) plus relocation reservations still on the wire.
func (e *Engine) reinstate(n int) {
	occ := 0
	for _, j := range e.running {
		for _, d := range j.nodes {
			if d == n {
				occ++
			}
		}
	}
	e.used[n] = occ + e.reserved[n]
}

// maybeSwap proposes up to maxSwapsPerEvent affinity-improving move
// groups and queues them as one priced mini-plan. Only one mini-plan is
// on the wire at a time; further proposals are deferred until it lands
// so they are always computed against fresh state. Relocation
// destinations are reserved immediately — an arrival racing the wire
// must not claim the same slot.
func (e *Engine) maybeSwap() {
	if e.opts.Policy != PolicySwap || e.wire != nil || e.stopped {
		return
	}
	groups := e.proposeGroups()
	if len(groups) == 0 {
		return
	}
	var migs []*fleet.Migration
	for _, g := range groups {
		for i, j := range g.jobs {
			migs = append(migs, e.migrationFor(j, g.dsts[i]))
		}
		if !g.exchange {
			for _, dst := range g.dsts {
				for _, i := range dst {
					e.used[i]++
					e.reserved[i]++
				}
			}
		}
	}
	seq := fleet.PlanSequence(migs, e.topo.LinkCaps(), e.opts.Seq)
	e.submit(&miniPlan{seq: seq, groups: groups})
}

// proposeGroups scans the running jobs, in arrival order, for strictly
// improving corrective moves against a shadow of the current books:
// gang relocations into free capacity first, then pairwise destination
// exchanges between equal-shape gangs. Earlier proposals update the
// shadow so later ones see their effect. One group counts one move
// against the maxSwapsPerEvent budget.
func (e *Engine) proposeGroups() []*moveGroup {
	shadow := e.shadow
	copy(shadow, e.used)
	free := e.freeVMs(shadow)
	loc := e.loc[:0]
	for _, j := range e.running {
		loc = append(loc, j.nodes)
	}
	e.loc = loc
	var groups []*moveGroup
	// Relocations: best free slots strictly better than the current ones.
	for x, j := range e.running {
		if len(groups) >= maxSwapsPerEvent {
			return groups
		}
		if j.vms > free {
			continue
		}
		dst := e.findSlots(shadow, j)
		if e.score(j.ib, dst) <= e.score(j.ib, loc[x]) {
			continue
		}
		for _, i := range loc[x] {
			shadow[i]--
		}
		for _, i := range dst {
			shadow[i]++
		}
		free = e.freeVMs(shadow)
		loc[x] = dst
		groups = append(groups, &moveGroup{jobs: []*job{j}, dsts: [][]int{dst}})
	}
	// Pairwise destination exchanges: swap two equal-shape gangs' node
	// sets when the summed affinity strictly rises. Slot counts per node
	// are unchanged by an exchange; with uniform VMBytes so is memory.
	// Gangs of the same capability would trade equal scores, so only an
	// IB gang and a TCP gang can gain, and the pair gains exactly when
	// the sum of their gains is positive — a gang's gain being how much
	// more its nodes score for the other capability than for its own.
	gain := e.gain[:0]
	for x, j := range e.running {
		gain = append(gain, e.score(!j.ib, loc[x])-e.score(j.ib, loc[x]))
	}
	e.gain = gain
	for x, a := range e.running {
		if len(groups) >= maxSwapsPerEvent {
			return groups
		}
		for y := x + 1; y < len(e.running); y++ {
			b := e.running[y]
			if a.vms != b.vms || a.ib == b.ib || gain[x]+gain[y] <= 0 {
				continue
			}
			loc[x], loc[y] = loc[y], loc[x]
			gain[x], gain[y] = -gain[y], -gain[x]
			groups = append(groups, &moveGroup{
				jobs: []*job{a, b}, dsts: [][]int{loc[x], loc[y]}, exchange: true,
			})
			break
		}
	}
	return groups
}

// migrationFor prices moving the gang to dsts: per-VM payload and wire
// rate, coordination plus IB re-attach overheads, the WAN circuits the
// gang crosses, and the shared NFS link when the model streams
// checkpoints (fleet.MigrationOf's pricing, applied to an abstract
// gang).
func (e *Engine) migrationFor(j *job, dsts []int) *fleet.Migration {
	m := e.opts.Model.WithDefaults()
	mig := &fleet.Migration{Job: &fleet.Job{Name: j.name, IBCapable: j.ib}, Fixed: m.Coordination}
	links := map[string]bool{}
	dstIB := false
	for i, di := range dsts {
		d := e.nodes[di]
		mig.Dsts = append(mig.Dsts, d)
		mig.Bytes += e.opts.Workload.VMBytes
		mig.MaxRate += m.PerVMWireRate
		var src *fleet.Site
		if i < len(j.nodes) {
			src = e.topo.SiteOf(e.nodes[j.nodes[i]])
		}
		dst := e.topo.SiteOf(d)
		if src != dst {
			for _, s := range []*fleet.Site{src, dst} {
				if s != nil && s.WANBandwidth > 0 {
					links["wan:"+s.Name] = true
				}
			}
		}
		if d.HasInfiniBand() {
			dstIB = true
		}
	}
	if j.ib {
		mig.Fixed += m.Hotplug
		if dstIB {
			mig.Fixed += m.IBLinkup
		}
	}
	if m.Cold && e.topo.NFSBandwidth > 0 {
		links[e.topo.NFSLink()] = true
	}
	for l := range links {
		mig.Links = append(mig.Links, l)
	}
	sort.Strings(mig.Links)
	return mig
}

// submit queues a mini-plan and starts the wire pump if idle.
func (e *Engine) submit(p *miniPlan) {
	e.pending = append(e.pending, p)
	if e.wire == nil {
		e.pump()
	}
}

// pump executes pending mini-plans one at a time: each batch holds the
// wire for its predicted duration (the sequencer's contention-aware
// estimate), then the plan's commit flips engine state atomically.
func (e *Engine) pump() {
	if len(e.pending) == 0 {
		e.wire = nil
		e.maybeSwap()
		e.checkDone()
		return
	}
	p := e.pending[0]
	e.pending = e.pending[1:]
	e.wire = p
	e.k.Schedule(p.seq.Predicted, e.handle(func() {
		e.commitGroups(p.groups)
		e.pump()
	}))
}

// commitGroups lands a mini-plan's move groups all-or-nothing each:
// source slots free, destination slots fill, and the cost integral
// switches to the new affinities. A group whose job departed, was
// evicted, or whose destination failed while the plan was on the wire
// is abandoned — its relocation reservation is returned.
func (e *Engine) commitGroups(groups []*moveGroup) {
	e.accrue()
	for _, g := range groups {
		ok := true
		for _, j := range g.jobs {
			if j.state != stateRunning {
				ok = false
			}
		}
		for _, dst := range g.dsts {
			for _, i := range dst {
				if e.nodes[i].Failed() {
					ok = false
				}
			}
		}
		if !ok {
			if !g.exchange {
				// Return the relocation reservation. A destination that
				// failed on the wire keeps nothing — its books are rebuilt
				// by reinstate on restore.
				for _, dst := range g.dsts {
					for _, i := range dst {
						e.reserved[i]--
						if !e.nodes[i].Failed() {
							e.used[i]--
						}
					}
				}
			}
			continue
		}
		for x, j := range g.jobs {
			for _, i := range j.nodes {
				e.used[i]--
			}
			for _, i := range g.dsts[x] {
				if g.exchange {
					e.used[i]++
				} else {
					// The reservation (taken at proposal time) becomes
					// occupancy.
					e.reserved[i]--
				}
			}
			e.deficit -= e.jobDeficit(j)
			j.nodes = g.dsts[x]
			e.deficit += e.jobDeficit(j)
			e.rep.SwapMigs++
			e.rep.MigBytes += float64(j.vms) * e.opts.Workload.VMBytes
		}
	}
}

// accrue folds the elapsed interval into the cost integral at the
// current fleet-wide affinity deficit. Call before any state change.
func (e *Engine) accrue() {
	now := e.k.Now()
	if now > e.clock {
		e.cost += float64(e.deficit) * (now - e.clock).Seconds()
		e.clock = now
	}
}

// checkDone finishes the run once every job is departed or rejected and
// no migration work is pending.
func (e *Engine) checkDone() {
	if e.stopped || e.wire != nil || len(e.pending) > 0 {
		return
	}
	if e.rep.Departed+e.rep.Rejected < e.opts.Workload.Jobs {
		return
	}
	e.finish()
}

func (e *Engine) finish() {
	if e.stopped {
		return
	}
	e.stopped = true
	e.accrue()
	e.rep.Duration = e.k.Now()
	e.done.Set(struct{}{})
}

// ReportNow snapshots the report (final once Done has resolved). A
// finished run keeps the finish-time duration even if the kernel ran
// longer on unrelated events (e.g. a node-restore scheduled after the
// last departure).
func (e *Engine) ReportNow() Report {
	e.accrue()
	r := e.rep
	if !e.stopped {
		r.Duration = e.k.Now()
	}
	r.CostIntegral = e.cost
	if r.Duration > 0 {
		r.AvgCost = e.cost / r.Duration.Seconds()
	}
	r.finalize()
	return r
}
