package churn

import "fmt"

// audit recounts the engine's books from ground truth — the running
// jobs' nodes plus the relocation reservations of the pending and
// on-wire mini-plans — and returns the first disagreement with the
// incremental books: per-node claims and reservations, the affinity
// deficit, the running list, the queue and the free-VM count. It also
// checks that a gang fits exactly when findSlots finds it room. A down
// node's claims are not compared: evicted gangs' claims stay stranded
// there until reinstate rebuilds them.
func (e *Engine) audit() error {
	occ := make([]int, len(e.nodes))
	res := make([]int, len(e.nodes))
	deficit := 0
	for x, j := range e.running {
		if j.state != stateRunning || len(j.nodes) != j.vms {
			return fmt.Errorf("running list holds %s in state %d with %d of %d VMs placed", j.name, j.state, len(j.nodes), j.vms)
		}
		if x > 0 && e.running[x-1].seq >= j.seq {
			return fmt.Errorf("running list out of arrival order at %s", j.name)
		}
		for _, i := range j.nodes {
			occ[i]++
		}
		deficit += e.jobDeficit(j)
	}
	for _, j := range e.queue {
		if j.state != stateQueued {
			return fmt.Errorf("queue holds %s in state %d", j.name, j.state)
		}
	}
	if n := len(e.running) + len(e.queue) + e.rep.Departed + e.rep.Rejected; n != e.rep.Arrived {
		return fmt.Errorf("%d running + %d queued + %d departed + %d rejected != %d arrived",
			len(e.running), len(e.queue), e.rep.Departed, e.rep.Rejected, e.rep.Arrived)
	}
	plans := e.pending
	if e.wire != nil {
		plans = append([]*miniPlan{e.wire}, plans...)
	}
	for _, p := range plans {
		for _, g := range p.groups {
			if g.exchange {
				continue
			}
			for _, dst := range g.dsts {
				for _, i := range dst {
					res[i]++
				}
			}
		}
	}
	free := 0
	for i, n := range e.nodes {
		if e.reserved[i] != res[i] {
			return fmt.Errorf("node %s: %d reservations booked, %d on the wire", n.Name, e.reserved[i], res[i])
		}
		if n.Failed() {
			continue
		}
		if e.used[i] != occ[i]+res[i] {
			return fmt.Errorf("node %s: %d VMs booked, %d resident + %d reserved", n.Name, e.used[i], occ[i], res[i])
		}
		// Claims may exceed capacity while a mini-plan is on the wire: a
		// relocation may reserve the slots an earlier one in the same plan
		// vacates on commit. Resident VMs may not.
		if occ[i] > e.capVMs[i] {
			return fmt.Errorf("node %s: %d VMs resident, over its capacity of %d", n.Name, occ[i], e.capVMs[i])
		}
		free += max(0, e.capVMs[i]-e.used[i])
	}
	if e.deficit != deficit {
		return fmt.Errorf("deficit booked %d, recounted %d", e.deficit, deficit)
	}
	if got := e.freeVMs(e.used); got != free {
		return fmt.Errorf("freeVMs %d, recounted %d", got, free)
	}
	for vms := 1; vms <= e.opts.Workload.MaxVMs; vms++ {
		for _, ib := range []bool{false, true} {
			if fits := e.findSlots(e.used, &job{ib: ib, vms: vms}) != nil; fits != (vms <= free) {
				return fmt.Errorf("findSlots for %d VMs (ib=%v) says fit=%v with %d VMs free", vms, ib, fits, free)
			}
		}
	}
	return nil
}
