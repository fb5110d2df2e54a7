package btl

import (
	"repro/internal/sim"
)

// SM is the shared-memory BTL for ranks inside the same guest: a memcpy
// through a shared segment, charged as CPU work on the host (both ranks'
// vCPUs live there). Highest exclusivity — co-located ranks never touch
// the wire, before or after a migration.
type SM struct {
	local    Endpoint
	released bool
	// CopyBandwidth is the per-pair memcpy throughput (bytes per
	// core-second); one core of the paper's Nehalem streams ≈3 GB/s.
	CopyBandwidth float64
	// Latency is the per-message queue-pair-in-shm handoff cost.
	Latency sim.Time
}

// NewSM builds the sm BTL for an endpoint.
func NewSM(local Endpoint) *SM {
	return &SM{local: local, CopyBandwidth: 3e9, Latency: 1 * sim.Microsecond}
}

// Name implements Module.
func (m *SM) Name() string { return "sm" }

// Exclusivity implements Module.
func (m *SM) Exclusivity() int { return ExclusivitySM }

// Usable implements Module (shared memory always exists).
func (m *SM) Usable() bool { return !m.released }

// Reachable implements Module: both ranks must live in the same guest.
func (m *SM) Reachable(peer Endpoint) bool {
	return m.local.VM() == peer.VM()
}

// Step implements Module: the handoff latency, then a memcpy on the host
// CPU.
func (m *SM) Step(x *Xfer) bool {
	switch x.state {
	case 0:
		if m.released {
			return x.fail(ErrReleased)
		}
		if !m.Reachable(x.peer) {
			return x.fail(ErrUnreachable)
		}
		x.state = 1
		x.w.WakeAfter(m.Latency)
		return false
	case 1:
		x.state = 2
		return m.local.VM().HostCPU().Submit(x.w, x.bytes/m.CopyBandwidth)
	}
	return true
}

// Release implements Module.
func (m *SM) Release() { m.released = true }

// Reinit implements Module.
func (m *SM) Reinit() { m.released = false }
