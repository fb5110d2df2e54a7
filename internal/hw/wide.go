package hw

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// DataCenter is one site of a wide-area deployment: its own InfiniBand
// fabric (subnets do not span the WAN) and an Ethernet switch trunked to
// the WAN core.
type DataCenter struct {
	Name      string
	IBSwitch  *fabric.Switch
	EthSwitch *fabric.Switch
	Subnet    *fabric.IBSubnet
	Cluster   *Cluster
}

// WideArea is a multi-data-center deployment joined by WAN circuits — the
// substrate for the paper's §II-A disaster-recovery use case and the §V
// wide-area migration discussion. The Ethernet address space spans all
// sites (an L2-over-WAN overlay, as deployed after the 2011 Tōhoku
// earthquake evacuation study the paper cites).
type WideArea struct {
	K       *sim.Kernel
	Network *fabric.Network
	// Core is the WAN hub switch every site trunks into.
	Core *fabric.Switch
	// Segment is the shared Ethernet address space.
	Segment *fabric.EthSegment
	DCs     []*DataCenter
	// Trunks are the per-site WAN circuits, in DC order.
	Trunks []*fabric.Trunk
}

// SiteConfig shapes one data center of a wide-area deployment: its node
// count and hardware spec (IB only when the spec's IBBandwidth > 0).
type SiteConfig struct {
	Nodes int
	Spec  NodeSpec
}

// WideAreaConfig shapes a wide-area deployment.
type WideAreaConfig struct {
	// Sites gives each data center its own shape, in DC order —
	// heterogeneous fleets mix IB-equipped and Ethernet-only sites.
	Sites []SiteConfig
	// WANBandwidth is each site's circuit capacity (bytes/sec, per
	// direction) and WANLatency its one-way latency.
	WANBandwidth float64
	WANLatency   sim.Time
}

// NewWideArea builds the multi-site testbed. Nodes follow each site's
// spec; sites get InfiniBand only when their spec's IBBandwidth > 0.
func NewWideArea(k *sim.Kernel, cfg WideAreaConfig) *WideArea {
	if len(cfg.Sites) < 1 {
		panic("hw: wide-area deployment with no sites")
	}
	for i, s := range cfg.Sites {
		if s.Nodes < 1 {
			panic(fmt.Sprintf("hw: wide-area site %d with %d nodes", i, s.Nodes))
		}
	}
	n := fabric.NewNetwork(k)
	core := n.NewSwitch("wan-core", fabric.Ethernet)
	w := &WideArea{K: k, Network: n, Core: core}
	w.Segment = fabric.NewEthSegment(core)
	for d, site := range cfg.Sites {
		name := fmt.Sprintf("dc%d", d)
		dc := &DataCenter{
			Name:      name,
			EthSwitch: n.NewSwitch(name+"/eth", fabric.Ethernet),
		}
		w.Trunks = append(w.Trunks, n.Connect(dc.EthSwitch, core, cfg.WANBandwidth, cfg.WANLatency))
		if site.Spec.IBBandwidth > 0 {
			dc.IBSwitch = n.NewSwitch(name+"/ib", fabric.InfiniBand)
			dc.Subnet = fabric.NewIBSubnet(dc.IBSwitch)
		}
		dc.Cluster = &Cluster{Name: name}
		for i := 0; i < site.Nodes; i++ {
			nodeName := fmt.Sprintf("%s-n%02d", name, i)
			node := &Node{
				Name:        nodeName,
				Cores:       site.Spec.Cores,
				MemoryBytes: site.Spec.MemoryBytes,
				CPU:         sim.NewPS(k, float64(site.Spec.Cores), 1),
				NIC:         w.Segment.NewNICOn(dc.EthSwitch, nodeName+"/eth0", site.Spec.EthBandwidth),
			}
			if dc.Subnet != nil {
				node.HCA = dc.Subnet.NewHCA(nodeName+"/ib0", site.Spec.IBBandwidth)
				node.HCA.PowerOn()
			}
			dc.Cluster.Nodes = append(dc.Cluster.Nodes, node)
		}
		w.DCs = append(w.DCs, dc)
	}
	return w
}
