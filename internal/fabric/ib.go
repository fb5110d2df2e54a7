package fabric

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// PortState is the physical/logical state of an InfiniBand port.
type PortState int

const (
	// PortDown: the port is unpowered or the HCA is detached.
	PortDown PortState = iota
	// PortPolling: link training in progress; the port is not usable.
	// The paper measures this phase at ≈30 s after a hotplug re-attach
	// (Table II) and flags it as the dominant constant overhead.
	PortPolling
	// PortActive: the link is up; the subnet manager has assigned a LID.
	PortActive
)

// String returns the state name as reported by ibstat-like tools.
func (s PortState) String() string {
	switch s {
	case PortDown:
		return "Down"
	case PortPolling:
		return "Polling"
	case PortActive:
		return "Active"
	default:
		return fmt.Sprintf("PortState(%d)", int(s))
	}
}

// LID is an InfiniBand local identifier, assigned by the subnet manager
// each time a port becomes active. LIDs are not stable across detach/attach.
type LID uint16

// QPN is a queue pair number, unique per HCA instance. QPNs are not stable
// across detach/attach either; the paper relies on Open MPI's BTL
// reconstruction rather than virtualizing them (unlike Nomad).
type QPN uint32

// Errors returned by HCA and queue-pair operations.
var (
	ErrPortNotActive   = errors.New("fabric: ib port not active")
	ErrQPDestroyed     = errors.New("fabric: queue pair destroyed")
	ErrQPNotConnected  = errors.New("fabric: queue pair not connected")
	ErrStaleLID        = errors.New("fabric: stale LID (peer re-trained)")
	ErrTrainingTimeout = errors.New("fabric: ib port stuck in Polling past the wait window")
)

// IBSubnet is the subnet manager state for one InfiniBand switch: it
// assigns LIDs and resolves them back to HCAs.
type IBSubnet struct {
	sw      *Switch
	nextLID LID
	byLID   map[LID]*HCA
	// TrainingTime is how long a port spends in Polling before Active.
	TrainingTime sim.Time
	// MsgLatency is the per-message end-to-end software+wire latency.
	MsgLatency sim.Time
	// ResyncTime is the bounded peer-resync cost of replaying a QP
	// snapshot (the RDMA-native migration path) instead of re-training.
	ResyncTime sim.Time
}

// DefaultIBTrainingTime matches the ≈30 s link-up cost measured in Table II.
const DefaultIBTrainingTime = 29800 * sim.Millisecond

// DefaultIBMsgLatency is a QDR verbs-level small-message latency.
const DefaultIBMsgLatency = 2 * sim.Microsecond

// NewIBSubnet creates a subnet manager for an InfiniBand switch.
func NewIBSubnet(sw *Switch) *IBSubnet {
	if sw.Tech != InfiniBand {
		panic("fabric: IB subnet on non-InfiniBand switch")
	}
	return &IBSubnet{
		sw:           sw,
		nextLID:      1,
		byLID:        make(map[LID]*HCA),
		TrainingTime: DefaultIBTrainingTime,
		MsgLatency:   DefaultIBMsgLatency,
		ResyncTime:   DefaultQPResyncTime,
	}
}

// Lookup resolves a LID to its HCA; ok is false for stale or unknown LIDs.
func (s *IBSubnet) Lookup(lid LID) (*HCA, bool) {
	h, ok := s.byLID[lid]
	return h, ok
}

// HCA is an InfiniBand host channel adapter (one port). The paper's testbed
// uses Mellanox ConnectX HCAs assigned to guests by PCI passthrough.
type HCA struct {
	Name    string
	subnet  *IBSubnet
	adapter *Adapter
	state   PortState
	lid     LID
	epoch   uint64 // bumped every PowerOn; stale QP handles detect this
	nextQPN QPN
	qps     map[QPN]*QueuePair
	active  *sim.Future[struct{}]
	trainEv sim.Event
	// stall is extra Polling time consumed by the next PowerOn (fault
	// injection: link training stuck beyond the normal 30 s window).
	stall sim.Time
	// resyncStall / staleQPNext / mismatchNext are one-shot fault arms for
	// the QP snapshot/replay path (see qpsnap.go).
	resyncStall  sim.Time
	staleQPNext  bool
	mismatchNext bool
}

// NewHCA creates a powered-down HCA cabled to the subnet's home switch
// with the given link bandwidth (bytes/sec).
func (s *IBSubnet) NewHCA(name string, bandwidth float64) *HCA {
	return s.NewHCAOn(s.sw, name, bandwidth)
}

// NewHCAOn creates an HCA on another InfiniBand switch managed by the same
// subnet manager (multi-switch fabrics built with Network.Connect).
func (s *IBSubnet) NewHCAOn(sw *Switch, name string, bandwidth float64) *HCA {
	if sw.Tech != InfiniBand {
		panic("fabric: HCA on non-InfiniBand switch")
	}
	return &HCA{
		Name:    name,
		subnet:  s,
		adapter: sw.NewAdapter(name, bandwidth, 0),
		state:   PortDown,
		nextQPN: 1,
		qps:     make(map[QPN]*QueuePair),
	}
}

// State returns the current port state.
func (h *HCA) State() PortState { return h.state }

// LID returns the port's LID; valid only while Active.
func (h *HCA) LID() LID { return h.lid }

// Adapter returns the underlying fabric attachment.
func (h *HCA) Adapter() *Adapter { return h.adapter }

// Subnet returns the subnet manager for this HCA's switch.
func (h *HCA) Subnet() *IBSubnet { return h.subnet }

// PowerOn transitions the port Down→Polling and starts link training; after
// the subnet's TrainingTime, the port becomes Active with a fresh LID.
// Calling PowerOn on a non-Down port panics (the PCI layer guarantees the
// device is quiescent before attach).
func (h *HCA) PowerOn() {
	if h.state != PortDown {
		panic(fmt.Sprintf("fabric: PowerOn on %s port %q", h.state, h.Name))
	}
	h.state = PortPolling
	h.epoch++
	h.active = sim.NewFuture[struct{}](h.k())
	training := h.subnet.TrainingTime.SaturatingAdd(h.stall)
	h.stall = 0
	h.trainEv = h.k().Schedule(training, func() {
		h.trainEv = sim.Event{}
		h.state = PortActive
		h.lid = h.subnet.nextLID
		h.subnet.nextLID++
		h.subnet.byLID[h.lid] = h
		h.active.Set(struct{}{})
	})
}

// PowerOff transitions the port to Down, withdraws its LID, and destroys
// every queue pair. Safe to call in any state.
func (h *HCA) PowerOff() {
	h.trainEv.Cancel()
	h.trainEv = sim.Event{}
	if h.state == PortActive {
		delete(h.subnet.byLID, h.lid)
	}
	h.state = PortDown
	h.lid = 0
	h.active = nil
	for qpn, qp := range h.qps {
		qp.destroyed = true
		delete(h.qps, qpn)
	}
}

// WaitActive blocks the calling process until the port reaches Active.
// This is the guest driver's "confirm linkup" step from Fig. 4.
func (h *HCA) WaitActive(p *sim.Proc) error {
	return h.WaitActiveTimeout(p, 0)
}

// WaitActiveTimeout is WaitActive bounded to d of simulated time (≤0 waits
// forever). It returns ErrTrainingTimeout if the port is still Polling when
// the window closes — the signal the Ninja orchestrator uses to degrade an
// IB destination to TCP instead of hanging the whole job on a link that
// never trains.
func (h *HCA) WaitActiveTimeout(p *sim.Proc, d sim.Time) error {
	switch h.state {
	case PortActive:
		return nil
	case PortPolling:
		if _, ok := sim.WaitTimeout(p, h.active, d); !ok {
			return fmt.Errorf("%w: %s after %v", ErrTrainingTimeout, h.Name, d)
		}
		return nil
	default:
		return ErrPortNotActive
	}
}

// InjectTrainingStall extends the next link training by d (one-shot fault
// injection): the port sits in Polling for TrainingTime+d before going
// Active, modelling the link-training stalls the paper's hardware exhibits
// on hotplug re-attach.
func (h *HCA) InjectTrainingStall(d sim.Time) {
	if d < 0 {
		d = 0
	}
	h.stall = d
}

// Flap power-cycles an Active port (cable pull / switch port reset): every
// queue pair dies, the LID is withdrawn, and the link re-trains from
// scratch. A non-Active port is left alone.
func (h *HCA) Flap() {
	if h.state != PortActive {
		return
	}
	h.PowerOff()
	h.PowerOn()
}

func (h *HCA) k() *sim.Kernel { return h.subnet.sw.net.k }

// CreateQP allocates a reliable-connected queue pair. The port must be
// Active (verbs would fail otherwise).
func (h *HCA) CreateQP() (*QueuePair, error) {
	if h.state != PortActive {
		return nil, ErrPortNotActive
	}
	qp := &QueuePair{hca: h, num: h.nextQPN, epoch: h.epoch}
	h.nextQPN++
	h.qps[qp.num] = qp
	return qp, nil
}

// QueuePair is a reliable-connected IB queue pair. Destroying the HCA (or
// powering it off) invalidates the QP; sends then fail, which is exactly
// why the paper quiesces MPI traffic before detaching the device.
type QueuePair struct {
	hca       *HCA
	num       QPN
	epoch     uint64
	remoteLID LID
	remoteQPN QPN
	connected bool
	destroyed bool
	// inflight is posted-but-uncompleted sends (consumes send credit);
	// completed counts reaped completions. Both are carried across an
	// RDMA-native migration by the QP snapshot.
	inflight  uint32
	completed uint64
}

// qpSendCreditMax is the modeled send-queue depth (verbs max_send_wr).
const qpSendCreditMax = 64

// sendCredit returns the remaining send credit (queue depth minus
// in-flight work requests), floored at zero.
func (qp *QueuePair) sendCredit() uint32 {
	if qp.inflight >= qpSendCreditMax {
		return 0
	}
	return qpSendCreditMax - qp.inflight
}

// Inflight returns the posted-but-uncompleted send count.
func (qp *QueuePair) Inflight() int { return int(qp.inflight) }

// Completed returns the total reaped send completions.
func (qp *QueuePair) Completed() uint64 { return qp.completed }

// QPN returns the queue pair number.
func (qp *QueuePair) QPN() QPN { return qp.num }

// Connect transitions the QP to ready-to-send toward a remote (LID, QPN).
func (qp *QueuePair) Connect(remote LID, remoteQPN QPN) error {
	if qp.destroyed || qp.epoch != qp.hca.epoch {
		return ErrQPDestroyed
	}
	if _, ok := qp.hca.subnet.Lookup(remote); !ok {
		return ErrStaleLID
	}
	qp.remoteLID = remote
	qp.remoteQPN = remoteQPN
	qp.connected = true
	return nil
}

// Connected reports whether the QP has a remote endpoint.
func (qp *QueuePair) Connected() bool { return qp.connected && !qp.destroyed }

// PostSend transmits bytes to the connected peer (send or RDMA-write; the
// cost model is identical at flow level). It returns a completion future,
// or an error if the QP or the peer's port is unusable.
func (qp *QueuePair) PostSend(bytes float64) (*sim.Future[struct{}], error) {
	if qp.destroyed || qp.epoch != qp.hca.epoch {
		return nil, ErrQPDestroyed
	}
	if !qp.connected {
		return nil, ErrQPNotConnected
	}
	if qp.hca.state != PortActive {
		return nil, ErrPortNotActive
	}
	peer, ok := qp.hca.subnet.Lookup(qp.remoteLID)
	if !ok {
		return nil, ErrStaleLID
	}
	net := qp.hca.subnet.sw.net
	path := Path(qp.hca.adapter, peer.adapter)
	qp.inflight++
	// The flow's done resolves the message latency after its data is in,
	// when the send's completion is reaped.
	return net.startFlow(path, bytes, 0, qp, qp.hca.subnet.MsgLatency).Done(), nil
}

// Send is PostSend + blocking wait.
func (qp *QueuePair) Send(p *sim.Proc, bytes float64) error {
	fut, err := qp.PostSend(bytes)
	if err != nil {
		return err
	}
	fut.Wait(p)
	return nil
}
