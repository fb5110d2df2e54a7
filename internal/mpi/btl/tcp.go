package btl

import "fmt"

// TCP is the tcp BTL: kernel TCP/IP over the guest's virtio-net device.
// It works on any Ethernet segment, costs host CPU (vhost datapath) and
// has higher per-message latency than the VMM-bypass path — the fallback
// transport of the paper's fallback operation.
//
// The vhost datapath cost is scaled by an over-commit penalty: when a
// host runs more busy vCPUs than cores (Fig. 8's "2 hosts (TCP)" server
// consolidation), the single-queue virtio-net datapath degrades
// super-linearly — scheduling latency between spinning vCPUs and the
// vhost thread, cache pollution, and exit storms. We model the per-byte
// cost as multiplied by the square of the busy-load/cores ratio (≥1),
// which reproduces the paper's observation that 8 processes/VM on
// consolidated hosts is far slower than 1 process/VM while every other
// configuration speeds up.
type TCP struct {
	local    Endpoint
	released bool
}

// overcommitPenalty returns the vhost efficiency penalty for an endpoint's
// current host.
func overcommitPenalty(e Endpoint) float64 {
	cpu := e.VM().HostCPU()
	ratio := (float64(cpu.Load()) + cpu.Background()) / cpu.Capacity()
	if ratio <= 1 {
		return 1
	}
	return ratio * ratio
}

// NewTCP builds the tcp BTL for an endpoint.
func NewTCP(local Endpoint) *TCP { return &TCP{local: local} }

// Name implements Module.
func (m *TCP) Name() string { return "tcp" }

// Exclusivity implements Module.
func (m *TCP) Exclusivity() int { return ExclusivityTCP }

// Usable implements Module: the guest needs an up Ethernet device.
func (m *TCP) Usable() bool {
	if m.released {
		return false
	}
	nic, ok := m.local.VM().Guest().EthDevice()
	return ok && nic.Up()
}

// Reachable implements Module: the peer's NIC must be on the same segment
// and up.
func (m *TCP) Reachable(peer Endpoint) bool {
	ln, ok := m.local.VM().Guest().EthDevice()
	if !ok {
		return false
	}
	pn, ok := peer.VM().Guest().EthDevice()
	if !ok || !pn.Up() {
		return false
	}
	return ln.Segment() == pn.Segment()
}

// Step implements Module: a virtio/TCP transfer charging vhost CPU on
// both hosts.
func (m *TCP) Step(x *Xfer) bool {
	if x.state == 1 {
		return x.awaitAll()
	}
	if m.released {
		return x.fail(ErrReleased)
	}
	ln, ok := m.local.VM().Guest().EthDevice()
	if !ok {
		return x.fail(ErrUnreachable)
	}
	pn, ok := x.peer.VM().Guest().EthDevice()
	if !ok {
		return x.fail(ErrUnreachable)
	}
	// Wire flow (no NIC-level CPU charging: the BTL owns the vhost cost
	// model so it can apply the over-commit penalty).
	fut, err := ln.SendTo(pn.IP(), x.bytes, 0, nil, nil)
	if err != nil {
		return x.fail(fmt.Errorf("btl/tcp: rank %d → %d: %w", m.local.RankID(), x.peer.RankID(), err))
	}
	// vhost datapath work on both hosts, concurrent with the flow.
	x.await(fut)
	if w := ln.CPUCostPerByte * x.bytes * overcommitPenalty(m.local); w > 0 {
		x.await(m.local.VM().HostCPU().ServeAsync(w))
	}
	if w := pn.CPUCostPerByte * x.bytes * overcommitPenalty(x.peer); w > 0 {
		x.await(x.peer.VM().HostCPU().ServeAsync(w))
	}
	x.state = 1
	return x.awaitAll()
}

// Release implements Module (sockets closed; nothing device-fatal here —
// TCP connections are re-dialed transparently on Reinit).
func (m *TCP) Release() { m.released = true }

// Reinit implements Module.
func (m *TCP) Reinit() { m.released = false }
