// Package btl models Open MPI's Byte Transfer Layer: per-interconnect
// point-to-point transport modules with exclusivity-based selection.
// This layer is where the paper's transport transparency lives — after a
// migration the modules are torn down and reconstructed, and whichever
// usable module has the highest exclusivity wins (openib 1024 beats tcp
// 100, so InfiniBand is preferred whenever a trained HCA exists; §III-C).
package btl

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/vmm"
)

// Open MPI's default exclusivity values: the higher, the more preferred.
const (
	ExclusivitySM     = 65536 // shared memory within one guest
	ExclusivityOpenIB = 1024
	ExclusivityTCP    = 100
)

// Endpoint identifies a communication peer: an MPI process and the VM it
// runs in. The mpi package's Rank implements it.
type Endpoint interface {
	RankID() int
	VM() *vmm.VM
}

// Errors returned by transfers.
var (
	ErrUnreachable = errors.New("btl: peer unreachable via this module")
	ErrNoModule    = errors.New("btl: no usable module for peer")
	ErrReleased    = errors.New("btl: module released")
)

// Module is one transport instance owned by one endpoint.
type Module interface {
	// Name is the component name ("self", "sm", "openib", "tcp").
	Name() string
	// Exclusivity is the selection priority.
	Exclusivity() int
	// Usable reports whether the local device exists and is up right now.
	Usable() bool
	// Reachable reports whether the module can reach the peer (device
	// technology and topology permitting).
	Reachable(peer Endpoint) bool
	// Step advances transfer x over the module: it reports true once the
	// payload is on the far side or the transfer failed (x.Err), and
	// otherwise registers x's waiter with a simulation primitive and
	// reports false, to be called again when the waiter wakes.
	Step(x *Xfer) bool
	// Release frees all interconnect resources (queue pairs, sockets).
	// The paper's pre-checkpoint phase calls this so the HCA can be
	// detached safely. A released module is unusable until Reinit.
	Release()
	// Reinit makes a released module usable again (BTL reconstruction in
	// the continue/restart phase).
	Reinit()
}

// Xfer is one transfer in progress: bytes to a peer, advanced by a
// module's Step each time its waiter wakes. Its waiter is either the
// process Transfer blocks, or the callback of a machine that drives the
// steps itself (the MPI send); the steps, and so the kernel events, are
// the same.
type Xfer struct {
	Err error // the transfer's outcome, once Step reports true

	w     *sim.Proc
	peer  Endpoint
	bytes float64
	state uint8 // the module's next step

	// openib: the connection, and the HCAs a lazy dial reads before its
	// address exchange.
	qp           *fabric.QueuePair
	hca, peerHCA *fabric.HCA

	// tcp and para-virtualized openib: the completions the transfer
	// waits for, in order, and how many have been seen.
	parts            [3]*sim.Future[struct{}]
	nparts, nawaited int
}

// Begin starts a transfer of bytes to peer whose waits register w.
func (x *Xfer) Begin(w *sim.Proc, peer Endpoint, bytes float64) {
	*x = Xfer{w: w, peer: peer, bytes: bytes}
}

// fail ends the transfer with err.
func (x *Xfer) fail(err error) bool {
	x.Err = err
	return true
}

// await adds f to the completions the transfer waits for.
func (x *Xfer) await(f *sim.Future[struct{}]) {
	x.parts[x.nparts] = f
	x.nparts++
}

// awaitAll waits for the completions one after another, each from the
// waiter's wake-up after the one before resolved.
func (x *Xfer) awaitAll() bool {
	for ; x.nawaited < x.nparts; x.nawaited++ {
		if !x.parts[x.nawaited].Await(x.w) {
			return false
		}
	}
	return true
}

// Transfer delivers bytes to peer over m, blocking p until the payload is
// on the far side.
func Transfer(p *sim.Proc, m Module, peer Endpoint, bytes float64) error {
	var x Xfer
	x.Begin(p, peer, bytes)
	for !m.Step(&x) {
		p.Park()
	}
	return x.Err
}

// Set is one endpoint's collection of BTL modules plus the per-peer
// selection cache.
type Set struct {
	local    Endpoint
	modules  []Module
	selected map[int]Module // peer rank → chosen module
}

// NewSet builds a module set for the endpoint.
func NewSet(local Endpoint, modules ...Module) *Set {
	s := &Set{local: local, modules: modules, selected: make(map[int]Module)}
	sort.SliceStable(s.modules, func(i, j int) bool {
		return s.modules[i].Exclusivity() > s.modules[j].Exclusivity()
	})
	return s
}

// Modules returns the modules in descending exclusivity order.
func (s *Set) Modules() []Module { return s.modules }

// Select returns the module used to reach peer, choosing the usable,
// reachable module with the highest exclusivity on first use and caching
// the decision (Open MPI fixes the BML routing at add_procs time).
func (s *Set) Select(peer Endpoint) (Module, error) {
	if m, ok := s.selected[peer.RankID()]; ok {
		return m, nil
	}
	for _, m := range s.modules {
		if m.Usable() && m.Reachable(peer) {
			s.selected[peer.RankID()] = m
			return m, nil
		}
	}
	return nil, fmt.Errorf("%w: rank %d", ErrNoModule, peer.RankID())
}

// Selected returns the cached choice for a peer, if any.
func (s *Set) Selected(peer int) (Module, bool) {
	m, ok := s.selected[peer]
	return m, ok
}

// ReleaseAll releases every module (pre-checkpoint: all interconnect
// resources freed). The per-peer selection cache is retained — Open MPI
// keeps its BML endpoints across a checkpoint; only Reconstruct re-runs
// selection. This is precisely why recovery migration needs
// continue_like_restart: without reconstruction the stale (tcp) routing
// survives even though a faster device has appeared.
func (s *Set) ReleaseAll() {
	for _, m := range s.modules {
		m.Release()
	}
}

// Reconstruct re-initializes every module and clears the selection cache,
// so the next Transfer re-runs selection against the *current* device set
// — the step that switches transports after an interconnect-transparent
// migration.
func (s *Set) Reconstruct() {
	for _, m := range s.modules {
		m.Reinit()
	}
	s.selected = make(map[int]Module)
}

// UsableNames returns the names of currently usable modules, in
// exclusivity order — handy for logs and assertions in tests.
func (s *Set) UsableNames() []string {
	var out []string
	for _, m := range s.modules {
		if m.Usable() {
			out = append(out, m.Name())
		}
	}
	return out
}
