package fabric

import (
	"errors"
	"fmt"

	"repro/internal/sim"
)

// Trunk is an inter-switch connection (a pair of directional links), used
// to build multi-switch topologies: racks behind a core switch, or two
// data centers joined by a WAN circuit (the paper's §II-A disaster
// recovery and §V wide-area migration discussion).
type Trunk struct {
	A, B *Switch
	ab   *Link // A→B
	ba   *Link // B→A
}

// ErrNoRoute is returned when two adapters have no switch path.
var ErrNoRoute = errors.New("fabric: no route")

// Connect joins two switches of the same technology with a trunk of the
// given per-direction bandwidth (bytes/sec) and one-way latency.
func (n *Network) Connect(a, b *Switch, bandwidth float64, latency sim.Time) *Trunk {
	if a.net != n || b.net != n {
		panic("fabric: Connect across networks")
	}
	if a.Tech != b.Tech {
		panic(fmt.Sprintf("fabric: trunk between %s and %s switches", a.Tech, b.Tech))
	}
	if a == b {
		panic("fabric: trunk to self")
	}
	t := &Trunk{
		A:  a,
		B:  b,
		ab: n.NewLink(fmt.Sprintf("trunk/%s→%s", a.Name, b.Name), bandwidth, latency),
		ba: n.NewLink(fmt.Sprintf("trunk/%s→%s", b.Name, a.Name), bandwidth, latency),
	}
	n.trunks = append(n.trunks, t)
	clear(n.routes) // a new trunk may shorten or open a route
	return t
}

// Links returns the A→B and B→A links (for bandwidth inspection in tests).
func (t *Trunk) Links() (ab, ba *Link) { return t.ab, t.ba }

// neighbors returns (switch, link-to-it) pairs adjacent to sw.
func (n *Network) neighbors(sw *Switch) []struct {
	sw   *Switch
	link *Link
} {
	var out []struct {
		sw   *Switch
		link *Link
	}
	for _, t := range n.trunks {
		if t.A == sw {
			out = append(out, struct {
				sw   *Switch
				link *Link
			}{t.B, t.ab})
		}
		if t.B == sw {
			out = append(out, struct {
				sw   *Switch
				link *Link
			}{t.A, t.ba})
		}
	}
	return out
}

// route is one cached Route result.
type route struct {
	path []*Link
	err  error
}

// Route returns the link path from src to dst: src's up-link, the trunk
// links of a shortest switch path (BFS, deterministic tie-break by trunk
// creation order), and dst's down-link. A route to self is empty.
// Results are cached per adapter pair, so callers share the returned
// path and must not modify it.
func Route(src, dst *Adapter) ([]*Link, error) {
	if src == nil || dst == nil {
		return nil, ErrNoRoute
	}
	if src == dst {
		return nil, nil
	}
	n := src.sw.net
	if dst.sw.net != n {
		return nil, ErrNoRoute
	}
	key := [2]*Adapter{src, dst}
	rt, ok := n.routes[key]
	if !ok {
		rt.path, rt.err = n.route(src, dst)
		if n.routes == nil {
			n.routes = make(map[[2]*Adapter]route)
		}
		n.routes[key] = rt
	}
	return rt.path, rt.err
}

// route computes Route between two adapters of n.
func (n *Network) route(src, dst *Adapter) ([]*Link, error) {
	if src.sw == dst.sw {
		return []*Link{src.up, dst.down}, nil
	}
	// BFS over the switch graph.
	type hop struct {
		prev *Switch
		via  *Link
	}
	visited := map[*Switch]hop{src.sw: {}}
	queue := []*Switch{src.sw}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur == dst.sw {
			break
		}
		for _, nb := range n.neighbors(cur) {
			if _, seen := visited[nb.sw]; seen {
				continue
			}
			visited[nb.sw] = hop{prev: cur, via: nb.link}
			queue = append(queue, nb.sw)
		}
	}
	if _, ok := visited[dst.sw]; !ok {
		return nil, fmt.Errorf("%w: %s ↛ %s", ErrNoRoute, src.Name, dst.Name)
	}
	// Reconstruct the trunk chain backwards.
	var middle []*Link
	for sw := dst.sw; sw != src.sw; sw = visited[sw].prev {
		middle = append([]*Link{visited[sw].via}, middle...)
	}
	path := append([]*Link{src.up}, middle...)
	path = append(path, dst.down)
	return path[:len(path):len(path)], nil
}

// RouteReachable reports whether a route exists between the adapters.
func RouteReachable(a, b *Adapter) bool {
	if a == nil || b == nil {
		return false
	}
	_, err := Route(a, b)
	return err == nil
}
