// Package fabric models cluster interconnects at flow level: links with
// bandwidth and latency, max-min fair sharing among concurrent flows, and
// technology-specific device models (InfiniBand HCAs with a link-training
// state machine, Ethernet NICs, para-virtualized virtio-net).
package fabric

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
)

// Link is a unidirectional pipe with a bandwidth capacity and a propagation
// latency contribution. Bidirectional adapters are modelled as an up-link /
// down-link pair.
type Link struct {
	Name      string
	Bandwidth float64  // bytes per second
	Latency   sim.Time // one-way propagation + serialization setup cost
	net       *Network
	flows     flowSet
	// Scratch state of one computeRates pass.
	remCap float64
	cnt    int
}

// Flow is an in-progress transfer across a path of links. Its rate is
// recomputed by the network whenever the set of active flows changes.
type Flow struct {
	net       *Network
	id        uint64 // creation order; fixes every iteration order
	path      []*Link
	remaining float64
	rate      float64
	maxRate   float64 // 0 = uncapped
	done      *sim.Future[struct{}]
	cancelled bool
	active    bool // in its bandwidth phase (member of the network's flows)
	assigned  bool // rate settled in the current computeRates pass
	// step is f.advance, bound once: every event of the flow's life runs
	// it, and phase says which one is due.
	step  func()
	phase flowPhase
	// qp, when set, is the queue pair whose send the flow carries: done
	// resolves tail after the data is in, when the send completes (see
	// QueuePair.PostSend).
	qp   *QueuePair
	tail sim.Time
}

// flowPhase is the next event of a flow's life.
type flowPhase uint8

const (
	phaseLatency  flowPhase = iota // the path latency elapses
	phaseArrived                   // a QP send's data is in
	phaseComplete                  // a QP send's completion is reaped
)

// Done returns the future resolved when the flow finishes.
func (f *Flow) Done() *sim.Future[struct{}] { return f.done }

// Remaining returns the bytes left to transfer (as of the last network
// recomputation; call Network.Sync for an up-to-date value).
func (f *Flow) Remaining() float64 { return f.remaining }

// Rate returns the flow's current max-min fair rate in bytes per second.
func (f *Flow) Rate() float64 { return f.rate }

// flowSet holds flows sorted by creation order, so that completing flows
// and filling rates visit them in the same order on every run: rate
// filling subtracts floating-point shares, and a different order can move
// a completion by a nanosecond.
type flowSet []*Flow

func byID(f *Flow, id uint64) int { return cmp.Compare(f.id, id) }

func (s *flowSet) add(f *Flow) {
	i, found := slices.BinarySearchFunc(*s, f.id, byID)
	if found {
		return // a path may cross a link twice
	}
	*s = slices.Insert(*s, i, f)
}

// remove deletes f. slices.Delete clears the vacated last slot, so the set
// does not keep a finished flow reachable.
func (s *flowSet) remove(f *Flow) {
	if i, found := slices.BinarySearchFunc(*s, f.id, byID); found {
		*s = slices.Delete(*s, i, i+1)
	}
}

// Network performs max-min fair bandwidth allocation across all active
// flows. All links of a simulated deployment belong to one Network.
type Network struct {
	k          *sim.Kernel
	links      []*Link
	trunks     []*Trunk
	flows      flowSet
	nextID     uint64
	lastUpdate sim.Time
	pending    sim.Event
	// replanDue is n.planned, bound once: the next-completion event.
	replanDue func()
	// routes caches Route by adapter pair; Connect, the only call that
	// changes the switch graph, clears it.
	routes map[[2]*Adapter]route
	// Scratch of replan and computeRates, kept between calls.
	finished []*Flow
	busy     []*Link
}

// NewNetwork returns an empty network bound to k.
func NewNetwork(k *sim.Kernel) *Network {
	n := &Network{k: k}
	n.replanDue = n.planned
	return n
}

// Kernel returns the simulation kernel the network runs on.
func (n *Network) Kernel() *sim.Kernel { return n.k }

// NewLink creates a link with the given capacity (bytes/sec) and latency.
func (n *Network) NewLink(name string, bandwidth float64, latency sim.Time) *Link {
	if bandwidth <= 0 {
		panic(fmt.Sprintf("fabric: link %q with non-positive bandwidth", name))
	}
	l := &Link{Name: name, Bandwidth: bandwidth, Latency: latency, net: n}
	n.links = append(n.links, l)
	return l
}

// PathLatency returns the summed latency of the path.
func PathLatency(path []*Link) sim.Time {
	var t sim.Time
	for _, l := range path {
		t += l.Latency
	}
	return t
}

// StartFlow begins a transfer of the given number of bytes along path.
// The path's summed latency elapses first (propagation), then the payload
// is served at the flow's max-min fair rate. maxRate caps the flow's rate
// (0 = uncapped). The returned flow's Done future resolves on completion.
//
// A zero-byte flow completes after just the path latency. An empty path is
// an intra-memory transfer and completes immediately.
func (n *Network) StartFlow(path []*Link, bytes float64, maxRate float64) *Flow {
	for _, l := range path {
		if l.net != n {
			panic("fabric: StartFlow with link from another network")
		}
	}
	return n.startFlow(path, bytes, maxRate, nil, 0)
}

// startFlow is StartFlow for a flow that, when qp is set, carries a send
// of qp completing tail after its data is in.
func (n *Network) startFlow(path []*Link, bytes, maxRate float64, qp *QueuePair, tail sim.Time) *Flow {
	n.nextID++
	f := &Flow{
		net:       n,
		id:        n.nextID,
		path:      path,
		remaining: bytes,
		maxRate:   maxRate,
		done:      sim.NewFuture[struct{}](n.k),
		qp:        qp,
		tail:      tail,
	}
	f.step = f.advance
	n.k.Schedule(PathLatency(path), f.step)
	return f
}

// advance runs the flow's next event. After the path latency a flow with
// bytes to move joins the bandwidth phase; one without is done. A QP
// send's data arrival takes one zero-delay hop before its completion
// latency, as a completion callback would.
func (f *Flow) advance() {
	n := f.net
	switch f.phase {
	case phaseLatency:
		if f.remaining <= 0 || len(f.path) == 0 {
			n.finish(f)
			return
		}
		if f.cancelled {
			return
		}
		n.sync()
		f.active = true
		n.flows.add(f)
		for _, l := range f.path {
			l.flows.add(f)
		}
		n.replan()
	case phaseArrived:
		f.phase = phaseComplete
		n.k.Schedule(f.tail, f.step)
	case phaseComplete:
		if f.qp.inflight > 0 {
			f.qp.inflight--
		}
		f.qp.completed++
		f.done.Set(struct{}{})
	}
}

// finish marks f's data as delivered: its done resolves now, or, for a QP
// send, after the completion path.
func (n *Network) finish(f *Flow) {
	if f.qp == nil {
		f.done.Set(struct{}{})
		return
	}
	f.phase = phaseArrived
	n.k.Schedule(0, f.step)
}

// Transfer runs a flow and blocks the calling process until it completes.
func (n *Network) Transfer(p *sim.Proc, path []*Link, bytes float64, maxRate float64) {
	n.StartFlow(path, bytes, maxRate).Done().Wait(p)
}

// Cancel aborts a flow; its Done future never resolves. Safe to call on a
// finished flow (no-op).
func (n *Network) Cancel(f *Flow) {
	if f.done.Done() || f.cancelled {
		return
	}
	f.cancelled = true
	if f.active {
		n.sync()
		n.removeFlow(f)
		n.replan()
	}
}

// Sync advances flow accounting to the current simulated time, so that
// Remaining() values are current.
func (n *Network) Sync() { n.sync() }

// ActiveFlows returns the number of flows currently in their bandwidth phase.
func (n *Network) ActiveFlows() int { return len(n.flows) }

func (n *Network) removeFlow(f *Flow) {
	f.active = false
	n.flows.remove(f)
	for _, l := range f.path {
		l.flows.remove(f)
	}
}

// sync advances every flow's remaining bytes at its current rate.
func (n *Network) sync() {
	now := n.k.Now()
	if now == n.lastUpdate {
		return
	}
	elapsed := (now - n.lastUpdate).Seconds()
	for _, f := range n.flows {
		f.remaining -= f.rate * elapsed
	}
	n.lastUpdate = now
}

const flowEpsilon = 1e-6

// replan completes finished flows, recomputes max-min fair rates and
// schedules the next completion event.
func (n *Network) replan() {
	for _, f := range n.flows {
		if f.remaining <= flowEpsilon {
			n.finished = append(n.finished, f)
		}
	}
	for i, f := range n.finished {
		n.removeFlow(f)
		n.finish(f)
		n.finished[i] = nil
	}
	n.finished = n.finished[:0]
	n.pending.Cancel()
	n.pending = sim.Event{}
	if len(n.flows) == 0 {
		return
	}
	n.computeRates()
	next := sim.MaxTime
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue
		}
		// +1ns guards against float rounding short; saturate, don't wrap.
		dt := sim.FromSeconds(f.remaining / f.rate).SaturatingAdd(1)
		if dt < next {
			next = dt
		}
	}
	if next == sim.MaxTime {
		return // all flows stalled or absurdly slow; nothing to schedule
	}
	n.pending = n.k.Schedule(next, n.replanDue)
}

// planned is the event of the next flow completion replan predicted.
func (n *Network) planned() {
	n.pending = sim.Event{}
	n.sync()
	n.replan()
}

// computeRates performs max-min fair allocation with per-flow caps
// (progressive filling / waterfilling). Flows are visited in creation
// order and links in creation order, so the result is the same on every
// run.
func (n *Network) computeRates() {
	for _, f := range n.flows {
		f.rate = 0
		f.assigned = false
	}
	unassigned := len(n.flows)
	busy := n.busy[:0] // links carrying flows
	for _, l := range n.links {
		if len(l.flows) == 0 {
			continue
		}
		l.remCap = l.Bandwidth
		l.cnt = len(l.flows)
		busy = append(busy, l)
	}
	n.busy = busy
	settle := func(f *Flow, rate float64) {
		f.rate = rate
		f.assigned = true
		unassigned--
		for _, l := range f.path {
			l.remCap -= rate
			l.cnt--
		}
	}
	for unassigned > 0 {
		// Fair share if we saturated the tightest link now.
		share := math.Inf(1)
		for _, l := range busy {
			if l.cnt > 0 {
				if s := l.remCap / float64(l.cnt); s < share {
					share = s
				}
			}
		}
		// Flows capped below the share settle first at their cap.
		progressed := false
		for _, f := range n.flows {
			if !f.assigned && f.maxRate > 0 && f.maxRate <= share {
				settle(f, f.maxRate)
				progressed = true
			}
		}
		if progressed {
			continue
		}
		if math.IsInf(share, 1) {
			// No constraining link (shouldn't happen: every flow has links).
			for _, f := range n.flows {
				if !f.assigned {
					f.rate = f.maxRate
					f.assigned = true
				}
			}
			return
		}
		// Saturate the bottleneck link(s): fix every unassigned flow that
		// crosses a link whose fair share equals the minimum.
		const tol = 1e-9
		for _, l := range busy {
			if l.cnt <= 0 {
				continue
			}
			if l.remCap/float64(l.cnt) <= share*(1+tol) {
				for _, f := range l.flows {
					if !f.assigned {
						settle(f, share)
					}
				}
			}
		}
	}
}
