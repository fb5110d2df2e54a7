package btl

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// OpenIB is the InfiniBand BTL: reliable-connected queue pairs over the
// guest's VMM-bypass HCA. Connections are established lazily per peer
// (address exchange over the out-of-band channel) and are invalidated
// whenever either side's HCA is reset — LIDs and QPNs change, which is
// fine because reconstruction re-exchanges them (§III-C, contrast with
// Nomad's location-dependent-resource virtualization).
type OpenIB struct {
	local    Endpoint
	released bool
	qps      map[int]*fabric.QueuePair // peer rank → connected QP
	// ConnectLatency models the OOB address exchange + QP state ramp.
	ConnectLatency sim.Time
	// paravirt, when set, models a para-virtualized IB driver instead of
	// VMM-bypass (the related-work alternative: Xen/VMware pv drivers,
	// §VI): every byte costs host CPU and every message pays extra
	// latency for the VMM crossing. The paper's design exists to avoid
	// exactly these costs during normal operation.
	paravirt *ParavirtCosts
}

// ParavirtCosts parameterizes a para-virtualized IB datapath.
type ParavirtCosts struct {
	// CPUCostPerByte is host CPU work per transferred byte (the copy
	// through the VMM; ≈1 core per 1.5 GB/s on the paper's hardware).
	CPUCostPerByte float64
	// ExtraLatency is the added per-message cost (VM exits, upcalls).
	ExtraLatency sim.Time
}

// DefaultParavirtCosts are calibrated to the ≈30–50% throughput loss
// reported for para-virtualized IB drivers of the period.
var DefaultParavirtCosts = ParavirtCosts{
	CPUCostPerByte: 1.0 / 1.5e9,
	ExtraLatency:   20 * sim.Microsecond,
}

// SetParavirt switches the module to the para-virtualized cost model
// (nil restores VMM-bypass).
func (m *OpenIB) SetParavirt(c *ParavirtCosts) { m.paravirt = c }

// NewOpenIB builds the openib BTL for an endpoint.
func NewOpenIB(local Endpoint) *OpenIB {
	return &OpenIB{
		local:          local,
		qps:            make(map[int]*fabric.QueuePair),
		ConnectLatency: 1 * sim.Millisecond,
	}
}

// Name implements Module.
func (m *OpenIB) Name() string { return "openib" }

// Exclusivity implements Module.
func (m *OpenIB) Exclusivity() int { return ExclusivityOpenIB }

// Usable implements Module: the guest must hold an HCA with an Active port.
func (m *OpenIB) Usable() bool {
	return !m.released && m.local.VM().Guest().IBUsable()
}

// Reachable implements Module: the peer needs an Active HCA on the same
// subnet.
func (m *OpenIB) Reachable(peer Endpoint) bool {
	lh, ok := m.local.VM().Guest().IBDevice()
	if !ok {
		return false
	}
	ph, ok := peer.VM().Guest().IBDevice()
	if !ok || ph.State() != fabric.PortActive {
		return false
	}
	return fabric.Reachable(lh.Adapter(), ph.Adapter())
}

// OpenIB transfer steps.
const (
	ibStart  = iota
	ibDialed // a lazy dial's address exchange has elapsed
	ibPost   // para-virtualized: the VMM crossing has elapsed
	ibWait   // the send is posted
)

// Step implements Module: connect on first use, then post the send and
// wait for its completion (and, para-virtualized, the VMM's copies).
func (m *OpenIB) Step(x *Xfer) bool {
	switch x.state {
	case ibStart:
		if m.released {
			return x.fail(ErrReleased)
		}
		if qp, ok := m.qps[x.peer.RankID()]; ok && qp.Connected() {
			x.qp = qp
			break
		}
		var ok bool
		if x.hca, ok = m.local.VM().Guest().IBDevice(); !ok {
			return x.fail(ErrUnreachable)
		}
		if x.peerHCA, ok = x.peer.VM().Guest().IBDevice(); !ok {
			return x.fail(ErrUnreachable)
		}
		x.state = ibDialed
		x.w.WakeAfter(m.ConnectLatency) // OOB LID/QPN exchange
		return false
	case ibDialed:
		if err := m.dial(x); err != nil {
			return x.fail(err)
		}
	case ibPost:
		return m.post(x)
	case ibWait:
		return x.awaitAll()
	}
	if pv := m.paravirt; pv != nil {
		x.state = ibPost
		x.w.WakeAfter(pv.ExtraLatency)
		return false
	}
	return m.post(x)
}

// dial connects a QP pair between the HCAs x read before the address
// exchange, and caches the local end for the peer.
func (m *OpenIB) dial(x *Xfer) error {
	qp, err := x.hca.CreateQP()
	if err != nil {
		return err
	}
	peerQP, err := x.peerHCA.CreateQP()
	if err != nil {
		return err
	}
	if err := qp.Connect(x.peerHCA.LID(), peerQP.QPN()); err != nil {
		return err
	}
	m.qps[x.peer.RankID()] = qp
	x.qp = qp
	return nil
}

// post posts x's send on its QP and waits for it to complete.
func (m *OpenIB) post(x *Xfer) bool {
	fut, err := x.qp.PostSend(x.bytes)
	if err != nil {
		// A destroyed or stale QP means the device changed under us —
		// drop the cached connection so a future retry reconnects.
		delete(m.qps, x.peer.RankID())
		return x.fail(fmt.Errorf("btl/openib: rank %d → %d: %w", m.local.RankID(), x.peer.RankID(), err))
	}
	x.await(fut)
	// Para-virtualized, the VMM copies every byte on both ends,
	// concurrent with the wire.
	if pv := m.paravirt; pv != nil {
		if w := pv.CPUCostPerByte * x.bytes; w > 0 {
			x.await(m.local.VM().HostCPU().ServeAsync(w))
			x.await(x.peer.VM().HostCPU().ServeAsync(w))
		}
	}
	x.state = ibWait
	return x.awaitAll()
}

// Release implements Module: destroy every connection (ibv_destroy_qp on
// all QPs) so the HCA is quiescent and can be hot-detached.
func (m *OpenIB) Release() {
	m.qps = make(map[int]*fabric.QueuePair)
	m.released = true
}

// Reinit implements Module.
func (m *OpenIB) Reinit() {
	m.qps = make(map[int]*fabric.QueuePair)
	m.released = false
}

// ErrNoHCA is returned when the guest has no IB device at all.
var ErrNoHCA = errors.New("btl/openib: no HCA in guest")

// ConnectionCount returns the number of live cached connections (tests).
func (m *OpenIB) ConnectionCount() int { return len(m.qps) }
