package vmm

import (
	"errors"
	"fmt"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/pci"
	"repro/internal/sim"
	"repro/internal/storage"
)

// State is the VM execution state.
type State int

const (
	// Running: vCPUs execute.
	Running State = iota
	// Stopped: vCPUs are halted (QMP "stop", or stop-and-copy downtime).
	Stopped
)

// String returns the QMP-style state name.
func (s State) String() string {
	if s == Stopped {
		return "paused"
	}
	return "running"
}

// Errors returned by VM operations.
var (
	ErrHasPassthrough = errors.New("vmm: cannot migrate with a passthrough device attached")
	ErrMigrating      = errors.New("vmm: migration already in progress")
	ErrNotStopped     = errors.New("vmm: VM not stopped")
)

// HCASlot is the bus slot Ninja scripts use for the passthrough HCA, and
// VNICSlot the slot of the para-virtualized NIC.
const (
	HCASlot  = "slot0"
	VNICSlot = "slot1"
)

// Config describes a VM to launch.
type Config struct {
	Name        string
	VCPUs       int
	MemoryBytes float64
}

// computeQuantum is the preemption granularity of guest compute work in
// core-seconds: how often a compute loop checks the VM run gate.
const computeQuantum = 1.0

// VM is one QEMU/KVM-like virtual machine.
type VM struct {
	k      *sim.Kernel
	cfg    Config
	params Params

	node  *hw.Node
	bus   *pci.Bus
	mem   *Memory
	guest *Guest
	vnic  *fabric.NIC
	store *storage.NFS

	state     State
	runCond   *sim.Cond
	chains    []*sim.Chain // ComputeChain runs in progress, surfaced by Stop
	migActive bool
	noiseOn   bool
	saved     bool
	migs      []MigrationStats
	qmp       *QMP
	faults    *FaultHooks
}

// New launches a VM on node with its guest RAM reserved, a virtio vNIC
// bridged through the node's physical NIC, and (optionally, via AttachBootHCA)
// the node's IB HCA passed through. The guest boots instantly at simulated
// time; boot cost is irrelevant to the paper's experiments.
func New(k *sim.Kernel, node *hw.Node, seg *fabric.EthSegment, cfg Config, params Params) (*VM, error) {
	if cfg.VCPUs <= 0 {
		return nil, fmt.Errorf("vmm: VM %q with %d vCPUs", cfg.Name, cfg.VCPUs)
	}
	if err := node.AllocMemory(cfg.MemoryBytes); err != nil {
		return nil, err
	}
	vm := &VM{
		k:       k,
		cfg:     cfg,
		params:  params,
		node:    node,
		bus:     pci.NewBus(k, cfg.Name+"/pci"),
		mem:     NewMemory(cfg.MemoryBytes, params.OSResidentBytes),
		runCond: sim.NewCond(k),
		state:   Running,
	}
	vm.bus.Slowdown = func() float64 {
		if vm.migActive || vm.noiseOn {
			return vm.params.HotplugNoiseFactor
		}
		return 1
	}
	vm.guest = newGuest(vm)
	vm.bus.SetListener(vm.guest)

	// Every paper VM has a virtio_net device for the TCP/IP path.
	vm.vnic = seg.NewVirtioNIC(cfg.Name+"/virtio0", params.VirtioBandwidth, params.VirtioCPUCostPerByte)
	vm.vnic.SetUplink(node.NIC)
	vnicFn := &pci.Function{
		Name:       "virtio-net0",
		Class:      pci.ClassVirtioNet,
		Payload:    vm.vnic,
		HostAttach: params.VirtioHostAttach,
		HostDetach: params.VirtioHostDetach,
	}
	vm.bootAttach(VNICSlot, vnicFn)
	return vm, nil
}

// bootAttach places a function into a slot as part of the machine's boot
// configuration: no hotplug latency, no driver reset (the device was
// initialized during boot, links already trained by the host).
func (vm *VM) bootAttach(slot string, fn *pci.Function) {
	if err := vm.bus.Insert(slot, fn); err != nil {
		panic(fmt.Sprintf("vmm: boot attach %s: %v", slot, err))
	}
	vm.guest.bootBind(fn)
}

// AttachBootHCA passes the host node's IB HCA through to the guest as part
// of the boot configuration (pre-trained: no 30 s link-up at t=0).
func (vm *VM) AttachBootHCA() error {
	if vm.node.HCA == nil {
		return fmt.Errorf("vmm: node %s has no HCA", vm.node.Name)
	}
	vm.bootAttach(HCASlot, vm.HCAFunction(vm.node.HCA, "vf0", "04:00.0"))
	return nil
}

// HCAFunction wraps a host HCA as a pluggable PCI function with the
// calibrated VFIO attach/detach costs.
func (vm *VM) HCAFunction(hca *fabric.HCA, tag, hostID string) *pci.Function {
	return &pci.Function{
		Name:       tag,
		Class:      pci.ClassIBHCA,
		HostID:     hostID,
		Payload:    hca,
		HostAttach: vm.params.IBHostAttach,
		HostDetach: vm.params.IBHostDetach,
	}
}

// Name returns the VM name.
func (vm *VM) Name() string { return vm.cfg.Name }

// Node returns the host node the VM currently runs on.
func (vm *VM) Node() *hw.Node { return vm.node }

// Bus returns the guest PCI bus.
func (vm *VM) Bus() *pci.Bus { return vm.bus }

// Memory returns the guest RAM model.
func (vm *VM) Memory() *Memory { return vm.mem }

// Guest returns the guest OS.
func (vm *VM) Guest() *Guest { return vm.guest }

// VNIC returns the guest's virtio NIC.
func (vm *VM) VNIC() *fabric.NIC { return vm.vnic }

// Params returns the VMM cost model.
func (vm *VM) Params() Params { return vm.params }

// Kernel returns the simulation kernel.
func (vm *VM) Kernel() *sim.Kernel { return vm.k }

// SetStorage attaches the shared store backing the VM image.
func (vm *VM) SetStorage(s *storage.NFS) { vm.store = s }

// State returns the execution state.
func (vm *VM) State() State { return vm.state }

// Migrating reports whether a live migration is in flight.
func (vm *VM) Migrating() bool { return vm.migActive }

// SetHotplugNoise forces the migration-noise slowdown onto hotplug work
// even outside the precopy window. Ninja migration sets it for the whole
// fallback/recovery sequence of a cross-node migration, reproducing the
// ≈3× hotplug inflation of Fig. 6 (destination QEMU warm-up and
// post-migration page faulting keep interfering with ACPI processing).
func (vm *VM) SetHotplugNoise(on bool) { vm.noiseOn = on }

// Migrations returns stats of completed migrations, oldest first.
func (vm *VM) Migrations() []MigrationStats { return vm.migs }

// Stop halts the vCPUs (QMP "stop"). A ComputeChain in progress surfaces
// when its current quantum completes, where Compute would next check the
// run gate.
func (vm *VM) Stop() {
	vm.state = Stopped
	for _, c := range vm.chains {
		c.Surface()
	}
}

// Cont resumes the vCPUs (QMP "cont").
func (vm *VM) Cont() {
	vm.state = Running
	vm.runCond.Broadcast()
}

// WaitRunnable blocks the calling guest process while the VM is stopped.
func (vm *VM) WaitRunnable(p *sim.Proc) {
	for vm.state == Stopped {
		vm.runCond.Wait(p)
	}
}

// Compute executes coreSeconds of single-threaded guest CPU work on the
// VM's current host, respecting CPU contention (processor sharing with
// other vCPUs, vhost threads and migration threads), the VM run gate, and
// host changes mid-computation (the work follows the VM across migration).
func (vm *VM) Compute(p *sim.Proc, coreSeconds float64) {
	for coreSeconds > 1e-12 {
		vm.WaitRunnable(p)
		chunk := coreSeconds
		if chunk > computeQuantum {
			chunk = computeQuantum
		}
		vm.node.CPU.Serve(p, chunk)
		coreSeconds -= chunk
	}
}

// ComputeChain runs up to n back-to-back Compute(p, q) calls as one PS
// chain on the current host, which costs no kernel event per quantum, and
// returns how many ran: fewer than n if Stop or c.Surface cut the chain at
// a quantum boundary. A stopped VM, or a q that Compute would split into
// several quanta, runs one eager Compute instead.
func (vm *VM) ComputeChain(p *sim.Proc, c *sim.Chain, n int, q float64) int {
	if vm.state == Stopped || q > computeQuantum || q <= 1e-12 {
		vm.Compute(p, q)
		return 1
	}
	vm.chains = append(vm.chains, c)
	served := vm.node.CPU.ServeChain(p, c, n, q)
	for i, x := range vm.chains {
		if x == c {
			vm.chains = append(vm.chains[:i], vm.chains[i+1:]...)
			break
		}
	}
	return served
}

// HostCPU returns the current host node's CPU resource (for charging
// datapath work such as vhost).
func (vm *VM) HostCPU() *sim.PS { return vm.node.CPU }
