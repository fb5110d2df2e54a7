package experiments

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/mpi"
	"repro/internal/mpi/btl"
	"repro/internal/ninja"
	"repro/internal/sim"
	"repro/internal/storage"
	"repro/internal/vmm"
)

// This file implements extension experiments beyond the paper's figures,
// quantifying the §V discussion: scalability of simultaneous migrations
// (intra-enclosure vs over a shared WAN circuit) and the proactive
// fault-tolerance alternative (checkpoint/restart through shared storage
// vs live migration).

// WideDeployment is a two-site deployment for the extension experiments.
type WideDeployment struct {
	K    *sim.Kernel
	W    *hw.WideArea
	NFS  *storage.NFS
	VMs  []*vmm.VM
	Job  *mpi.Job
	Orch *ninja.Orchestrator
}

// DeployWideArea boots nVMs VMs (one per dc0 node) on a two-site testbed
// whose sites share a WAN circuit of wanBandwidth bytes/sec.
func DeployWideArea(nVMs, ranksPerVM int, wanBandwidth float64, nfsBandwidth float64) (*WideDeployment, error) {
	k := sim.NewKernel()
	site := hw.SiteConfig{Nodes: 8, Spec: hw.AGCNodeSpec}
	w := hw.NewWideArea(k, hw.WideAreaConfig{
		Sites:        []hw.SiteConfig{site, site},
		WANBandwidth: wanBandwidth,
		WANLatency:   10 * sim.Millisecond,
	})
	nfs := storage.NewNFS("wan-nfs")
	if nfsBandwidth > 0 {
		nfs.EnableIO(k, nfsBandwidth, nfsBandwidth)
	}
	nfs.MountAll(w.DCs[0].Cluster, w.DCs[1].Cluster)
	d := &WideDeployment{K: k, W: w, NFS: nfs}
	for i := 0; i < nVMs; i++ {
		vm, err := vmm.New(k, w.DCs[0].Cluster.Nodes[i], w.Segment, vmm.Config{
			Name: fmt.Sprintf("vm%02d", i), VCPUs: 8, MemoryBytes: 20 * hw.GB,
		}, vmm.DefaultParams())
		if err != nil {
			return nil, err
		}
		vm.SetStorage(nfs)
		d.VMs = append(d.VMs, vm)
	}
	k.RunUntil(fabric.DefaultIBTrainingTime + sim.Second)
	job, err := mpi.NewJob(k, mpi.Config{VMs: d.VMs, RanksPerVM: ranksPerVM, ContinueLikeRestart: true})
	if err != nil {
		return nil, err
	}
	d.Job = job
	d.Orch = ninja.New(job, ninja.Options{})
	return d, nil
}

// ScalabilityRow is one point of the extension scalability experiment.
type ScalabilityRow struct {
	VMs int
	// IntraDC is the wall time of N simultaneous migrations between
	// disjoint node pairs inside one enclosure (the paper's setting —
	// §V argues this is "essentially scalable").
	IntraDC sim.Time
	// CrossWAN is the same N migrations squeezed through one shared WAN
	// circuit — where the paper expects "migration time may significantly
	// increase as the number of hosts increases due to network
	// congestion".
	CrossWAN sim.Time
}

// extWorkload gives every VM an 8 GiB incompressible region and an
// iterating job so the Ninja protocol has something to coordinate.
func extWorkload(d *WideDeployment) *sim.Future[struct{}] {
	for _, vm := range d.VMs {
		if _, err := vm.Memory().AddRegion("data", 8*hw.GB, 0, 0); err != nil {
			panic(err)
		}
	}
	return d.Job.Launch("app", func(p *sim.Proc, rk *mpi.Rank) {
		rk.ComputeLoop(p, 4000, 0.2)
	})
}

// ExtScalability measures migration wall time for N = vmCounts
// simultaneous VM migrations, intra-DC vs across a 2.6 Gbit/s WAN circuit.
func ExtScalability(vmCounts []int) ([]ScalabilityRow, error) {
	if len(vmCounts) == 0 {
		vmCounts = []int{1, 2, 4, 8}
	}
	const wanBW = 0.325e9 // 2.6 Gbit/s disaster-recovery circuit
	var rows []ScalabilityRow
	for _, n := range vmCounts {
		row := ScalabilityRow{VMs: n}
		for _, cross := range []bool{false, true} {
			d, err := DeployWideArea(n, 1, wanBW, 0)
			if err != nil {
				return nil, err
			}
			app := extWorkload(d)
			var dsts []*hw.Node
			if cross {
				dsts = d.W.DCs[1].Cluster.Nodes[:n]
			} else {
				// Swap within dc0: VM i moves to node (i+n)%8... use the
				// unoccupied upper nodes for disjoint pairs.
				for i := 0; i < n; i++ {
					dsts = append(dsts, d.W.DCs[0].Cluster.Nodes[(i+4)%8])
				}
			}
			var rep ninja.Report
			var migErr error
			d.K.Go("driver", func(p *sim.Proc) {
				p.Sleep(2 * sim.Second)
				rep, migErr = d.Orch.MigratePolicy(p, dsts, ninja.AttachNever)
			})
			d.K.Run()
			d.K.Close()
			if migErr != nil {
				return nil, fmt.Errorf("experiments: scalability n=%d cross=%v: %w", n, cross, migErr)
			}
			if !app.Done() {
				return nil, fmt.Errorf("experiments: scalability n=%d: app incomplete", n)
			}
			if cross {
				row.CrossWAN = rep.Migration
			} else {
				row.IntraDC = rep.Migration
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ExtScalabilityRender formats the scalability rows.
func ExtScalabilityRender(rows []ScalabilityRow) *metrics.Table {
	t := metrics.NewTable("Ext. — simultaneous migration scalability (§V) [seconds]",
		"VMs", "intra-DC", "cross-WAN (2.6 Gbit/s shared)")
	for _, r := range rows {
		t.AddRow(r.VMs, r.IntraDC, r.CrossWAN)
	}
	return t
}

// ColdVsLiveRow compares the two transfer mechanisms for the same fleet.
type ColdVsLiveRow struct {
	VMs  int
	Live sim.Time // live migration over the WAN
	Cold sim.Time // savevm → shared NFS → loadvm
}

// ExtColdVsLive contrasts live migration with the proactive-FT
// checkpoint/restart path (§II-A) for N VMs crossing the WAN, with an NFS
// server on a 10 Gbit/s pipe.
func ExtColdVsLive(vmCounts []int) ([]ColdVsLiveRow, error) {
	if len(vmCounts) == 0 {
		vmCounts = []int{1, 4, 8}
	}
	var rows []ColdVsLiveRow
	for _, n := range vmCounts {
		row := ColdVsLiveRow{VMs: n}
		for _, cold := range []bool{false, true} {
			d, err := DeployWideArea(n, 1, 1.25e9, 1.25e9)
			if err != nil {
				return nil, err
			}
			app := extWorkload(d)
			dsts := d.W.DCs[1].Cluster.Nodes[:n]
			var rep ninja.Report
			var migErr error
			d.K.Go("driver", func(p *sim.Proc) {
				p.Sleep(2 * sim.Second)
				if cold {
					rep, migErr = d.Orch.ColdMigrate(p, dsts)
				} else {
					rep, migErr = d.Orch.MigratePolicy(p, dsts, ninja.AttachNever)
				}
			})
			d.K.Run()
			d.K.Close()
			if migErr != nil {
				return nil, fmt.Errorf("experiments: cold-vs-live n=%d cold=%v: %w", n, cold, migErr)
			}
			if !app.Done() {
				return nil, fmt.Errorf("experiments: cold-vs-live n=%d: app incomplete", n)
			}
			if cold {
				row.Cold = rep.Migration
			} else {
				row.Live = rep.Migration
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ExtColdVsLiveRender formats the comparison.
func ExtColdVsLiveRender(rows []ColdVsLiveRow) *metrics.Table {
	t := metrics.NewTable("Ext. — live migration vs checkpoint/restart through NFS [seconds]",
		"VMs", "live (WAN)", "cold (savevm+loadvm)")
	for _, r := range rows {
		t.AddRow(r.VMs, r.Live, r.Cold)
	}
	return t
}

// BypassRow compares VMM-bypass InfiniBand to a para-virtualized IB
// driver for MPI point-to-point traffic — the motivation for the whole
// design (§I: "VMM-bypass I/O technologies ... significantly reduce the
// overhead" / §VI's pv-driver related work).
type BypassRow struct {
	Mode string // "vmm-bypass" or "paravirt"
	// PingPong1MB is the round-trip time for a 1 MB exchange.
	PingPong1MB sim.Time
	// Bandwidth1GB is the achieved throughput for a 1 GB transfer (B/s).
	Bandwidth1GB float64
}

// ExtBypassOverhead measures both modes on two busy VMs (7 of 8 cores
// loaded with compute, as in a real application) to expose the paravirt
// datapath's CPU appetite.
func ExtBypassOverhead() ([]BypassRow, error) {
	run := func(paravirt bool) (BypassRow, error) {
		row := BypassRow{Mode: "vmm-bypass"}
		if paravirt {
			row.Mode = "paravirt"
		}
		d, err := Deploy(DeployConfig{
			NVMs: 2, RanksPerVM: 1, AttachHCA: true, DstHasIB: true,
			ContinueLikeRestart: true,
		})
		if err != nil {
			return row, err
		}
		defer d.K.Close()
		if paravirt {
			for _, rk := range d.Job.Ranks() {
				for _, m := range rk.BTLs().Modules() {
					if ib, ok := m.(*btl.OpenIB); ok {
						pv := btl.DefaultParavirtCosts
						ib.SetParavirt(&pv)
					}
				}
			}
		}
		// Background compute load on every host (7 cores busy).
		for _, vm := range d.VMs {
			vm.HostCPU().AddBackground(7)
		}
		app := d.Job.Launch("pingpong", func(p *sim.Proc, rk *mpi.Rank) {
			peer := 1 - rk.RankID()
			// Warm the connection.
			if rk.RankID() == 0 {
				rk.Send(p, peer, 0, 1024)
			} else {
				rk.Recv(p, peer, 0)
			}
			// 1 MB ping-pong ×10.
			start := p.Now()
			for i := 0; i < 10; i++ {
				if rk.RankID() == 0 {
					rk.Send(p, peer, 1, 1e6)
					rk.Recv(p, peer, 2)
				} else {
					rk.Recv(p, peer, 1)
					rk.Send(p, peer, 2, 1e6)
				}
			}
			if rk.RankID() == 0 {
				row.PingPong1MB = (p.Now() - start) / 10
			}
			// 1 GB one-way bandwidth.
			start = p.Now()
			if rk.RankID() == 0 {
				rk.Send(p, peer, 3, 1e9)
			} else {
				rk.Recv(p, peer, 3)
			}
			if rk.RankID() == 0 {
				row.Bandwidth1GB = 1e9 / (p.Now() - start).Seconds()
			}
		})
		d.K.Run()
		if !app.Done() {
			return row, fmt.Errorf("experiments: bypass overhead (%s): app incomplete", row.Mode)
		}
		return row, nil
	}
	var rows []BypassRow
	for _, pv := range []bool{false, true} {
		row, err := run(pv)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// ExtBypassOverheadRender formats the comparison.
func ExtBypassOverheadRender(rows []BypassRow) *metrics.Table {
	t := metrics.NewTable("Ext. — VMM-bypass vs para-virtualized InfiniBand (busy hosts)",
		"Mode", "1MB ping-pong [ms]", "1GB bandwidth [GB/s]")
	for _, r := range rows {
		t.AddRow(r.Mode, r.PingPong1MB.Milliseconds(), r.Bandwidth1GB/1e9)
	}
	return t
}
