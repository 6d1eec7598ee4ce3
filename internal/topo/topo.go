// Package topo builds the network topologies evaluated in the PDQ paper
// (§5.1, §5.5): the single-bottleneck star of Fig. 2b, the two-level
// single-rooted tree of Fig. 2a, Fat-tree, BCube and Jellyfish, together
// with deterministic shortest-path routing and equal-cost multipath
// enumeration for Multipath PDQ (§6).
package topo

import (
	"fmt"
	"math/rand"

	"pdq/internal/netsim"
	"pdq/internal/sim"
)

// Topology is a built network plus routing state.
type Topology struct {
	Name     string
	Net      *netsim.Network
	Hosts    []*netsim.Host
	Switches []*netsim.Switch

	adj  [][]*netsim.Link // outgoing links per NodeID
	dist [][]int32        // BFS hop counts to each routed-to node, lazy (distTo)

	candBuf  []*netsim.Link  // reusable equal-cost candidate buffer (pathVia)
	queueBuf []netsim.NodeID // reusable BFS queue (distancesFrom)
	pathRng  *rand.Rand      // Paths' tie-breaker, reseeded per computation
	routes   map[routeKey]*routes
}

// routeKey names one memoized route set: up to k paths from a to b.
type routeKey struct {
	a, b netsim.NodeID
	k    int
}

// routes is one memoized answer of Paths, and the reverse of each of its
// paths once Routes has asked for them.
type routes struct {
	fwd, rev [][]*netsim.Link
}

// New creates an empty topology over a fresh network.
func New(name string, seed int64) *Topology {
	return &Topology{Name: name, Net: netsim.NewNetwork(sim.New(), seed)}
}

// Reset returns a used topology to its just-built state on engine s, its
// network seeded with seed (netsim.Network.Reset). The graph, the routing
// caches and the memoized routes stay, so every run on one topology
// shares its routes.
func (t *Topology) Reset(s *sim.Sim, seed int64) { t.Net.Reset(s, seed) }

// Sim returns the simulation driving the topology's network.
func (t *Topology) Sim() *sim.Sim { return t.Net.Sim }

func (t *Topology) addHost() *netsim.Host {
	h := t.Net.NewHost()
	t.Hosts = append(t.Hosts, h)
	return h
}

func (t *Topology) addSwitch() *netsim.Switch {
	s := t.Net.NewSwitch()
	t.Switches = append(t.Switches, s)
	return s
}

// connect creates a duplex link between a and b and records adjacency.
func (t *Topology) connect(a, b netsim.Node) *netsim.Link {
	l := t.Net.NewDuplexLink(a, b)
	t.note(l)
	t.note(l.Peer)
	if h, ok := a.(*netsim.Host); ok && h.Access == nil {
		h.Access = l
	}
	if h, ok := b.(*netsim.Host); ok && h.Access == nil {
		h.Access = l.Peer
	}
	return l
}

func (t *Topology) note(l *netsim.Link) {
	id := int(l.From.ID())
	for len(t.adj) <= id {
		t.adj = append(t.adj, nil)
	}
	t.adj[id] = append(t.adj[id], l)
}

// Adjacent returns the outgoing links of node id.
func (t *Topology) Adjacent(id netsim.NodeID) []*netsim.Link {
	if int(id) >= len(t.adj) {
		return nil
	}
	return t.adj[id]
}

// distancesFrom computes BFS hop counts from node src to every node.
func (t *Topology) distancesFrom(src netsim.NodeID) []int32 {
	n := t.Net.NumNodes()
	d := make([]int32, n)
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue := append(t.queueBuf[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, l := range t.Adjacent(u) {
			v := l.To.ID()
			if d[v] < 0 {
				d[v] = d[u] + 1
				queue = append(queue, v)
			}
		}
	}
	t.queueBuf = queue
	return d
}

// distTo returns (cached) BFS distances from every node TO dst, computed by
// BFS from dst (links are symmetric duplex pairs, so distances agree).
func (t *Topology) distTo(dst netsim.NodeID) []int32 {
	if t.dist == nil {
		t.dist = make([][]int32, t.Net.NumNodes())
	}
	if t.dist[dst] == nil {
		t.dist[dst] = t.distancesFrom(dst)
	}
	return t.dist[dst]
}

// Path returns a deterministic shortest path of directed links from host a
// to host b: Paths(a, b, 1)[0]. Ties are broken by lowest link ID, so the
// same pair always routes the same way. It panics when b is unreachable.
// The path is shared and read-only, like every path Paths returns.
func (t *Topology) Path(a, b *netsim.Host) []*netsim.Link {
	return t.reachable(a, b, t.Paths(a, b, 1))[0]
}

// Routes returns Paths(a, b, k) and, at the same index, the reverse of
// each path (netsim.ReversePath), both memoized and shared. It panics,
// like Path, when b is unreachable.
func (t *Topology) Routes(a, b *netsim.Host, k int) (fwd, rev [][]*netsim.Link) {
	r := t.route(a, b, k)
	t.reachable(a, b, r.fwd)
	if r.rev == nil {
		r.rev = make([][]*netsim.Link, len(r.fwd))
		for i, p := range r.fwd {
			r.rev[i] = netsim.ReversePath(p)
		}
	}
	return r.fwd, r.rev
}

// reachable returns paths, or panics when there are none.
func (t *Topology) reachable(a, b *netsim.Host, paths [][]*netsim.Link) [][]*netsim.Link {
	if len(paths) == 0 {
		panic(fmt.Sprintf("topo %s: no path %d->%d", t.Name, a.ID(), b.ID()))
	}
	return paths
}

// pathVia walks the shortest-path DAG from a to b, using pick to choose
// among equal-cost next hops (candidates are sorted by link ID). The
// candidate buffer is reused across calls — pick must not retain it — and
// the returned path is sized exactly to the hop count, so building a path
// costs one allocation.
//
// A destination with a single link is reached only through that link's far
// end, so the walk descends the neighbour's distance field and the last hop
// is appended: the single-homed hosts of a rack share one BFS instead of
// running one each. The test is on the adjacency list, so multi-homed
// servers (BCube, DCell) keep a field of their own. pick still sees the
// last hop as a one-candidate choice, as it would at the end of a walk on
// b's own field.
func (t *Topology) pathVia(a, b netsim.NodeID, pick func([]*netsim.Link) *netsim.Link) []*netsim.Link {
	if a == b {
		return nil
	}
	via := b
	var last *netsim.Link
	if out := t.Adjacent(b); len(out) == 1 && out[0].Peer != nil {
		via, last = out[0].To.ID(), out[0].Peer
	}
	d := t.distTo(via)
	if d[a] < 0 {
		return nil
	}
	hops := int(d[a])
	if last != nil {
		hops++
	}
	path := make([]*netsim.Link, 0, hops)
	u := a
	for u != via {
		cands := t.candBuf[:0]
		for _, l := range t.Adjacent(u) {
			if d[l.To.ID()] == d[u]-1 {
				cands = append(cands, l)
			}
		}
		t.candBuf = cands[:0]
		if len(cands) == 0 {
			return nil
		}
		l := pick(cands)
		path = append(path, l)
		u = l.To.ID()
	}
	if last != nil {
		t.candBuf = append(t.candBuf[:0], last)
		path = append(path, pick(t.candBuf))
	}
	return path
}

// PathExcluding returns a deterministic shortest path of directed links
// from host a to host b that avoids every link for which blocked returns
// true — failover route recomputation around failed links (DESIGN.md §11).
// It runs a fresh BFS on the surviving subgraph (the cached distance
// tables assume the full topology), so it allocates; call it on fault
// events, not per packet. Ties are broken by lowest link ID, matching
// Path. It returns nil when no route survives.
func (t *Topology) PathExcluding(a, b *netsim.Host, blocked func(*netsim.Link) bool) []*netsim.Link {
	src, dst := a.ID(), b.ID()
	if src == dst {
		return nil
	}
	// BFS from dst, like distTo, so the forward walk below can descend the
	// distance field. Expanding node u here traverses the u→v link, but the
	// forward path through that edge uses its reverse direction — the
	// peer — so the peer is what must survive the block predicate.
	n := t.Net.NumNodes()
	d := make([]int32, n)
	for i := range d {
		d[i] = -1
	}
	d[dst] = 0
	queue := make([]netsim.NodeID, 0, n)
	queue = append(queue, dst)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, l := range t.Adjacent(u) {
			if l.Peer == nil || blocked(l.Peer) {
				continue
			}
			if v := l.To.ID(); d[v] < 0 {
				d[v] = d[u] + 1
				queue = append(queue, v)
			}
		}
	}
	if d[src] < 0 {
		return nil
	}
	path := make([]*netsim.Link, 0, d[src])
	u := src
	for u != dst {
		var next *netsim.Link
		// Adjacency lists are in link-creation order, i.e. ascending link
		// ID, so the first admissible descent is the lowest-ID tie-break.
		for _, l := range t.Adjacent(u) {
			if !blocked(l) && d[l.To.ID()] == d[u]-1 {
				next = l
				break
			}
		}
		if next == nil {
			return nil
		}
		path = append(path, next)
		u = next.To.ID()
	}
	return path
}

// Paths returns up to maxK distinct equal-cost shortest paths from a to b,
// deterministically derived from (a, b), and none when b is unreachable.
// The first returned path equals Path(a, b). Used by M-PDQ to assign
// subflows to ECMP paths.
//
// The answer is memoized per (a, b, maxK) for the topology's life, Reset
// included, since the graph never changes: every flow between two hosts
// shares one route. The returned slices are therefore shared and
// read-only. A caller that needs another path assigns a fresh slice
// (PathExcluding's, on failover); nothing may write a returned path in
// place.
func (t *Topology) Paths(a, b *netsim.Host, maxK int) [][]*netsim.Link {
	return t.route(a, b, maxK).fwd
}

// route returns the memo entry for (a, b, k), computing its paths on a
// miss.
func (t *Topology) route(a, b *netsim.Host, k int) *routes {
	key := routeKey{a.ID(), b.ID(), k}
	if r, ok := t.routes[key]; ok {
		return r
	}
	if t.routes == nil {
		t.routes = make(map[routeKey]*routes)
	}
	r := &routes{fwd: t.paths(a, b, k)}
	t.routes[key] = r
	return r
}

// paths computes Paths' answer; pathVia is the only walk it runs.
func (t *Topology) paths(a, b *netsim.Host, maxK int) [][]*netsim.Link {
	var out [][]*netsim.Link
	add := func(p []*netsim.Link) bool {
		if p == nil {
			return false
		}
		// Dedup by direct link-sequence comparison: links are unique
		// objects, so pointer equality along the path is exactly the old
		// "ID,ID,..." string key without the per-candidate allocations.
		// The candidate set is tiny (≤ maxK accepted + misses), so the
		// quadratic scan is cheaper than hashing.
		for _, q := range out {
			if pathEqual(p, q) {
				return false
			}
		}
		out = append(out, p)
		return true
	}
	if add(t.pathVia(a.ID(), b.ID(), func(c []*netsim.Link) *netsim.Link { return c[0] })) && maxK <= 1 {
		return out
	}
	if t.pathRng == nil {
		t.pathRng = rand.New(rand.NewSource(0))
	}
	// Seed restarts the source on the very stream NewSource(seed) would
	// give, without another 4.9 KB source per computation.
	rng := t.pathRng
	rng.Seed(int64(a.ID())<<20 ^ int64(b.ID()) ^ 0x5bd1e995)
	misses := 0
	for len(out) < maxK && misses < 64 {
		p := t.pathVia(a.ID(), b.ID(), func(c []*netsim.Link) *netsim.Link { return c[rng.Intn(len(c))] })
		if !add(p) {
			misses++
		}
	}
	return out
}

// pathEqual reports whether two paths traverse the same links in the same
// order.
func pathEqual(a, b []*netsim.Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Diameter returns the maximum shortest-path hop count between any two
// hosts (useful in tests).
func (t *Topology) Diameter() int {
	max := 0
	for _, h := range t.Hosts {
		d := t.distTo(h.ID())
		for _, g := range t.Hosts {
			if int(d[g.ID()]) > max {
				max = int(d[g.ID()])
			}
		}
	}
	return max
}
