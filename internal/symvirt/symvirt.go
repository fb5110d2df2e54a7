// Package symvirt implements the SymVirt mechanism (§III-B): a gray-box
// rendezvous between distributed VMMs and guest applications. Guest-side
// coordinators issue SymVirt wait hypercalls that block the application;
// a host-side controller observes when every VM has entered wait, runs
// VMM operations through per-VM agents (device detach/attach, migration),
// and issues SymVirt signal to resume the guests.
package symvirt

import (
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/vmm"
)

// Token is the value a SymVirt signal delivers to the waiting guest.
type Token int

const (
	// TokenHold instructs the guest library to re-enter wait immediately:
	// the controller script has more phases for this blocking point
	// (e.g. detach, then migrate, then attach — Fig. 4's three rounds).
	TokenHold Token = iota
	// TokenProceed releases the guest to continue past the blocking point.
	TokenProceed
)

// Coordinator is the guest-side half, one per VM. Application processes
// (MPI ranks) call Hold; once all expected processes of the VM are
// blocked, the VM is announced ready to the controller.
type Coordinator struct {
	k        *sim.Kernel
	vm       *vmm.VM
	expected int

	waiting int
	gen     int
	token   Token
	ready   *sim.Future[struct{}]
	release *sim.Cond
}

// NewCoordinator creates the coordinator for a VM expecting the given
// number of application processes to participate in each rendezvous.
func NewCoordinator(vm *vmm.VM, expected int) *Coordinator {
	if expected < 1 {
		panic("symvirt: coordinator needs at least one participant")
	}
	k := vm.Kernel()
	return &Coordinator{
		k:        k,
		vm:       vm,
		expected: expected,
		ready:    sim.NewFuture[struct{}](k),
		release:  sim.NewCond(k),
	}
}

// VM returns the coordinated VM.
func (c *Coordinator) VM() *vmm.VM { return c.vm }

// wait is one SymVirt wait hypercall: block until the next signal, and
// return the signal's token.
func (c *Coordinator) wait(p *sim.Proc) Token {
	c.waiting++
	if c.waiting == c.expected {
		c.ready.Set(struct{}{})
	}
	gen := c.gen
	for c.gen == gen {
		c.release.Wait(p)
	}
	return c.token
}

// Hold blocks the calling process at one logical blocking point, spanning
// as many controller phases as the script runs (wait → signal(hold) →
// wait → ... → signal(proceed)).
func (c *Coordinator) Hold(p *sim.Proc) {
	for c.wait(p) != TokenProceed {
	}
}

// Ready returns the future resolved when all expected processes of this
// VM are blocked in wait for the current round.
func (c *Coordinator) Ready() *sim.Future[struct{}] { return c.ready }

// signal releases all current waiters with the token and opens the next
// round.
func (c *Coordinator) signal(tok Token) error {
	if !c.ready.Done() {
		return fmt.Errorf("symvirt: signal to %s before all %d processes reached wait",
			c.vm.Name(), c.expected)
	}
	c.waiting = 0
	c.token = tok
	c.gen++
	c.ready = sim.NewFuture[struct{}](c.k)
	c.release.Broadcast()
	return nil
}

// Target couples a VM's monitor with its coordinator — one row of the
// controller's host list.
type Target struct {
	VM    *vmm.VM
	Coord *Coordinator
}

// ErrScriptOrder reports controller misuse (e.g. signal before wait_all).
var ErrScriptOrder = errors.New("symvirt: script ordering violation")

// Controller is the host-side master (the paper's Python controller). It
// spawns one agent per VM for each operation; agents talk to QEMU through
// the monitor (QMP) interface.
type Controller struct {
	k       *sim.Kernel
	targets []Target
	// ConfirmTime is the per-phase script/QMP bookkeeping cost (the
	// "confirm" slices in Fig. 4, counted into the hotplug overhead).
	ConfirmTime sim.Time
}

// NewController builds a controller over the target VMs.
func NewController(k *sim.Kernel, targets []Target, confirm sim.Time) *Controller {
	return &Controller{k: k, targets: targets, ConfirmTime: confirm}
}

// Targets returns the controlled VMs.
func (c *Controller) Targets() []Target { return c.targets }

// WaitAll blocks until every VM's processes are parked in SymVirt wait
// (the script's ctl.wait_all()).
func (c *Controller) WaitAll(p *sim.Proc) {
	for _, t := range c.targets {
		t.Coord.Ready().Wait(p)
	}
	p.Sleep(c.ConfirmTime)
}

// Signal resumes every VM with the token (ctl.signal()).
func (c *Controller) Signal(tok Token) error {
	for _, t := range c.targets {
		if err := t.Coord.signal(tok); err != nil {
			return err
		}
	}
	return nil
}

// agentFanout runs op once per target (given its index) in parallel agent
// processes and blocks until all complete, collecting the first error.
func (c *Controller) agentFanout(p *sim.Proc, name string, op func(ap *sim.Proc, i int, t Target) error) error {
	wg := sim.NewWaitGroup(c.k)
	wg.Add(len(c.targets))
	var firstErr error
	for i, t := range c.targets {
		c.k.Go(fmt.Sprintf("symvirt-agent/%s/%s", name, t.VM.Name()), func(ap *sim.Proc) {
			if err := op(ap, i, t); err != nil && firstErr == nil {
				firstErr = err
			}
			wg.Done()
		})
	}
	wg.Wait(p)
	p.Sleep(c.ConfirmTime)
	return firstErr
}

// DeviceDetach hot-unplugs the tagged device from every VM (script
// ctl.device_detach(tag='vf0')). VMs without the device are skipped, so
// the same script works on Ethernet-only sources. Agents speak QMP, as in
// the paper: device_del, then wait for the DEVICE_DELETED event.
func (c *Controller) DeviceDetach(p *sim.Proc, tag string) error {
	return c.agentFanout(p, "detach", func(ap *sim.Proc, _ int, t Target) error {
		if _, _, ok := t.VM.Bus().FindByTag(tag); !ok {
			return nil
		}
		q := t.VM.QMP()
		cmd, _ := json.Marshal(vmm.QMPCommand{
			Execute:   "device_del",
			Arguments: json.RawMessage(fmt.Sprintf(`{"id":%q}`, tag)),
		})
		var resp vmm.QMPResponse
		if err := json.Unmarshal(q.Execute(cmd), &resp); err != nil {
			return err
		}
		if resp.Error != nil {
			return fmt.Errorf("symvirt: device_del on %s: %s", t.VM.Name(), resp.Error.Desc)
		}
		q.WaitEvent(ap, "DEVICE_DELETED")
		return nil
	})
}

// DeviceAttach hot-plugs the host HCA into every VM whose current node has
// one (script ctl.device_attach(host='04:00.0', tag='vf0')), via QMP.
func (c *Controller) DeviceAttach(p *sim.Proc, tag, hostID string) error {
	return c.agentFanout(p, "attach", func(ap *sim.Proc, _ int, t Target) error {
		if t.VM.Node().HCA == nil {
			return nil
		}
		if _, _, present := t.VM.Bus().FindByTag(tag); present {
			return nil // idempotent: already attached (rollback paths)
		}
		q := t.VM.QMP()
		cmd, _ := json.Marshal(vmm.QMPCommand{
			Execute:   "device_add",
			Arguments: json.RawMessage(fmt.Sprintf(`{"driver":"vfio-pci","host":%q,"id":%q}`, hostID, tag)),
		})
		var resp vmm.QMPResponse
		if err := json.Unmarshal(q.Execute(cmd), &resp); err != nil {
			return err
		}
		if resp.Error != nil {
			return fmt.Errorf("symvirt: device_add on %s: %s", t.VM.Name(), resp.Error.Desc)
		}
		q.WaitEvent(ap, "NINJA_DEVICE_ADDED")
		return nil
	})
}

// Migrate is the script's transfer step (ctl.migration(src_hostlist,
// dst_hostlist)): one agent per VM, in parallel, each running op with its
// VM's index and destination. It blocks until every agent completes and
// returns the first error.
func (c *Controller) Migrate(p *sim.Proc, name string, dsts []*hw.Node, op func(ap *sim.Proc, i int, dst *hw.Node) error) error {
	if len(dsts) != len(c.targets) {
		return fmt.Errorf("%w: %d destinations for %d VMs", ErrScriptOrder, len(dsts), len(c.targets))
	}
	return c.agentFanout(p, name, func(ap *sim.Proc, i int, _ Target) error {
		return op(ap, i, dsts[i])
	})
}
