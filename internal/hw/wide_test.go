package hw

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

func newWide(t *testing.T, dcs int) *WideArea {
	t.Helper()
	k := sim.NewKernel()
	sites := make([]SiteConfig, dcs)
	for i := range sites {
		sites[i] = SiteConfig{Nodes: 4, Spec: AGCNodeSpec}
	}
	return NewWideArea(k, WideAreaConfig{
		Sites:        sites,
		WANBandwidth: 1.25e9, // a 10 Gbit/s circuit
		WANLatency:   10 * sim.Millisecond,
	})
}

func TestWideAreaShape(t *testing.T) {
	w := newWide(t, 3)
	if len(w.DCs) != 3 || len(w.Trunks) != 3 {
		t.Fatalf("%d DCs, %d trunks", len(w.DCs), len(w.Trunks))
	}
	for _, dc := range w.DCs {
		if len(dc.Cluster.Nodes) != 4 {
			t.Fatalf("%s has %d nodes", dc.Name, len(dc.Cluster.Nodes))
		}
		if dc.Subnet == nil || dc.IBSwitch == nil {
			t.Fatalf("%s missing InfiniBand", dc.Name)
		}
		for _, n := range dc.Cluster.Nodes {
			if n.HCA == nil || n.NIC == nil {
				t.Fatalf("node %s missing adapters", n.Name)
			}
		}
	}
}

func TestWideAreaEthernetRoutesAcrossWAN(t *testing.T) {
	w := newWide(t, 2)
	a := w.DCs[0].Cluster.Nodes[0].NIC.Adapter()
	b := w.DCs[1].Cluster.Nodes[0].NIC.Adapter()
	if !fabric.Reachable(a, b) {
		t.Fatal("cross-DC Ethernet unreachable")
	}
	path := fabric.Path(a, b)
	// up + trunk(dc0→core) + trunk(core→dc1) + down
	if len(path) != 4 {
		t.Fatalf("cross-DC path length = %d", len(path))
	}
	if fabric.PathLatency(path) != 20*sim.Millisecond {
		t.Fatalf("cross-DC latency = %v", fabric.PathLatency(path))
	}
}

func TestWideAreaInfiniBandIsSiteLocal(t *testing.T) {
	// IB subnets do not span the WAN: HCAs in different DCs are
	// unreachable (separate switches, no IB trunk).
	w := newWide(t, 2)
	a := w.DCs[0].Cluster.Nodes[0].HCA.Adapter()
	b := w.DCs[1].Cluster.Nodes[0].HCA.Adapter()
	if fabric.Reachable(a, b) {
		t.Fatal("IB should not span data centers")
	}
	// But it works within a site.
	c := w.DCs[0].Cluster.Nodes[1].HCA.Adapter()
	if !fabric.Reachable(a, c) {
		t.Fatal("intra-DC IB unreachable")
	}
}

func TestWideAreaWANContention(t *testing.T) {
	// Two cross-DC transfers from dc0 to dc1 share dc0's WAN circuit.
	w := newWide(t, 2)
	k := w.K
	src1 := w.DCs[0].Cluster.Nodes[0].NIC
	src2 := w.DCs[0].Cluster.Nodes[1].NIC
	dst1 := w.DCs[1].Cluster.Nodes[0].NIC
	dst2 := w.DCs[1].Cluster.Nodes[1].NIC
	epoch := k.Now()
	var d1, d2 sim.Time
	k.Go("t1", func(p *sim.Proc) {
		src1.Send(p, dst1.IP(), 1.25e9, 0, nil)
		d1 = p.Now() - epoch
	})
	k.Go("t2", func(p *sim.Proc) {
		src2.Send(p, dst2.IP(), 1.25e9, 0, nil)
		d2 = p.Now() - epoch
	})
	k.Run()
	// Each 1.25 GB at a fair half of the 1.25 GB/s circuit → ≈2 s.
	want := 2 * sim.Second
	tol := 100 * sim.Millisecond
	if d1 < want-tol || d1 > want+tol || d2 < want-tol || d2 > want+tol {
		t.Fatalf("d1=%v d2=%v, want ≈2s (shared WAN)", d1, d2)
	}
}
