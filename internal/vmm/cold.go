package vmm

import (
	"errors"
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
)

// Cold migration (checkpoint/restart through the shared store) backs the
// paper's proactive fault-tolerance use case (§II-A: "we can restart VMs
// on an Ethernet cluster from checkpointed VM images on an Infiniband
// cluster"). The VM image is a qcow2-internal snapshot (§IV-A: "The VM
// image was created using the qcow2 format which enabled us to make
// snapshots internally"); uniform pages compress, so the image holds only
// the non-uniform resident data.

// Errors for the checkpoint/restart path.
var (
	ErrNotSaved     = errors.New("vmm: VM has no saved image")
	ErrAlreadySaved = errors.New("vmm: VM already suspended to image")
	ErrNoStorage    = errors.New("vmm: VM has no shared store attached")
)

// ColdStats records one suspend-to-disk / restore cycle.
type ColdStats struct {
	From, To    string
	ImageBytes  float64
	SaveTime    sim.Time
	RestoreTime sim.Time
}

// ImageBytes returns the current size of a memory snapshot: the OS
// resident set plus each region's non-uniform fraction (uniform pages
// compress in qcow2 exactly as they do on the migration wire).
func (vm *VM) ImageBytes() float64 {
	img := vm.mem.OSBytes()
	for _, r := range vm.mem.Regions() {
		img += r.Bytes * (1 - r.Uniformity)
	}
	return img
}

// Saved reports whether the VM is currently suspended to an image.
func (vm *VM) Saved() bool { return vm.saved }

// SaveImage suspends the VM to the shared store ("savevm"): the vCPUs
// stop, the memory snapshot is written at the store's (shared) write
// bandwidth, and the host's memory reservation is released. Like live
// migration, it refuses while a VMM-bypass device is attached.
func (vm *VM) SaveImage(p *sim.Proc) (ColdStats, error) {
	var st ColdStats
	if vm.saved {
		return st, ErrAlreadySaved
	}
	if vm.migActive {
		return st, ErrMigrating
	}
	if vm.Monitor().HasPassthrough() {
		return st, ErrHasPassthrough
	}
	if vm.store == nil {
		return st, ErrNoStorage
	}
	start := p.Now()
	wasRunning := vm.state == Running
	vm.Stop()
	st.From = vm.node.Name
	st.ImageBytes = vm.ImageBytes()
	// The snapshot writer walks guest RAM like the migration thread...
	vm.node.CPU.Serve(p, vm.mem.TotalBytes()/vm.params.ScanRate)
	// ...and streams the non-uniform pages to the store.
	if err := vm.store.Write(p, st.ImageBytes); err != nil {
		// Rollback in place: the guest memory is intact, so the VM simply
		// resumes on its current node with nothing saved.
		if wasRunning {
			vm.Cont()
		}
		return st, fmt.Errorf("vmm: savevm %s: %w", vm.Name(), err)
	}
	vm.node.FreeMemory(vm.cfg.MemoryBytes)
	vm.saved = true
	st.SaveTime = p.Now() - start
	return st, nil
}

// RestoreOn resumes a saved VM on dst ("loadvm" in a fresh QEMU): memory
// is re-reserved, the image is read back at the store's bandwidth, the
// virtio backend re-bridges, and the vCPUs continue. The guest observes
// nothing but a pause — the same property live migration provides, at
// disk cost instead of wire cost.
func (vm *VM) RestoreOn(p *sim.Proc, dst *hw.Node) (ColdStats, error) {
	var st ColdStats
	if !vm.saved {
		return st, ErrNotSaved
	}
	if !vm.store.MountedOn(dst) {
		return st, fmt.Errorf("vmm: restore %s: store %s not mounted on %s",
			vm.Name(), vm.store.Name, dst.Name)
	}
	if err := dst.AllocMemory(vm.cfg.MemoryBytes); err != nil {
		return st, fmt.Errorf("vmm: restore %s: %w", vm.Name(), err)
	}
	start := p.Now()
	st.From, st.To = vm.node.Name, dst.Name
	st.ImageBytes = vm.ImageBytes()
	if err := vm.store.Read(p, st.ImageBytes); err != nil {
		// The image is still on the store; release the reservation and
		// leave the VM suspended so a retry (possibly elsewhere) works.
		dst.FreeMemory(vm.cfg.MemoryBytes)
		return st, fmt.Errorf("vmm: loadvm %s: %w", vm.Name(), err)
	}
	dst.CPU.Serve(p, st.ImageBytes/vm.params.ScanRate) // page-in & fixups
	vm.vnic.SetUplink(dst.NIC)
	vm.node = dst
	vm.saved = false
	vm.Cont()
	st.RestoreTime = p.Now() - start
	return st, nil
}

// ColdMigrate checkpoint/restarts the VM onto dst: savevm to the shared
// store, then loadvm on dst. It is idempotent across retries: a VM already
// suspended to image (an earlier attempt failed after savevm) skips
// straight to the restore. On error the stats are zero.
func (vm *VM) ColdMigrate(p *sim.Proc, dst *hw.Node) (ColdStats, error) {
	var save ColdStats
	if vm.saved {
		// Retry after a failed restore: the image is already on the store.
		save.From, save.ImageBytes = vm.node.Name, vm.ImageBytes()
	} else {
		var err error
		if save, err = vm.SaveImage(p); err != nil {
			return ColdStats{}, err
		}
	}
	restore, err := vm.RestoreOn(p, dst)
	if err != nil {
		return ColdStats{}, err
	}
	return ColdStats{
		From: save.From, To: restore.To, ImageBytes: save.ImageBytes,
		SaveTime: save.SaveTime, RestoreTime: restore.RestoreTime,
	}, nil
}
