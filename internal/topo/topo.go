// Package topo builds the network topologies evaluated in the PDQ paper
// (§5.1, §5.5): the single-bottleneck star of Fig. 2b, the two-level
// single-rooted tree of Fig. 2a, Fat-tree, BCube and Jellyfish, together
// with deterministic shortest-path routing and equal-cost multipath
// enumeration for Multipath PDQ (§6).
package topo

import (
	"fmt"
	"math/rand"
	"slices"

	"pdq/internal/carve"
	"pdq/internal/netsim"
	"pdq/internal/sim"
)

// Topology is a built network plus routing state.
type Topology struct {
	Name     string
	Net      *netsim.Network
	Hosts    []*netsim.Host
	Switches []*netsim.Switch

	// Adjacency in compressed rows, built from the link table on first use
	// (adjacency): node u's outgoing links are adj[off[u]:off[u+1]], in
	// link-ID order.
	off []int32
	adj []*netsim.Link

	dist     [][]int32 // BFS hop counts to each routed-to node, lazy (distTo)
	fields   []int32   // the distance store's uncarved rest (field)
	unrouted int       // routing targets without a field yet (targets)

	walk     []*netsim.Link   // descend's path, reused
	found    [][]*netsim.Link // paths' accepted paths, reused
	candBuf  []*netsim.Link   // reusable equal-cost candidate buffer (descend)
	queueBuf []netsim.NodeID  // reusable BFS queue (search)
	pathRng  *rand.Rand       // Paths' tie-breaker, reseeded per computation
	routes   map[routeKey]*routes
	entries  carve.Chunks[routes]         // every memo entry
	hops     carve.Chunks[*netsim.Link]   // every memoized path, either way
	sets     carve.Chunks[[]*netsim.Link] // every memoized path set
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
func New(name string, seed int64) *Topology { return newSized(name, seed, size{}) }

// newSized creates an empty topology over a fresh network whose node and
// link tables are sized for s (netsim.Network.Reserve).
func newSized(name string, seed int64, s size) *Topology {
	t := &Topology{Name: name, Net: netsim.NewNetwork(sim.New(), seed)}
	hosts, switches := int(s.hosts), int(s.switches)
	t.Net.Reserve(hosts, switches, 2*int(s.cables))
	t.Hosts = make([]*netsim.Host, 0, hosts)
	t.Switches = make([]*netsim.Switch, 0, switches)
	return t
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

// connect creates a duplex link between a and b and records host access.
func (t *Topology) connect(a, b netsim.Node) *netsim.Link {
	l := t.Net.NewDuplexLink(a, b)
	t.off = nil // a link added after routing began rebuilds the rows
	if h, ok := a.(*netsim.Host); ok && h.Access == nil {
		h.Access = l
	}
	if h, ok := b.(*netsim.Host); ok && h.Access == nil {
		h.Access = l.Peer
	}
	return l
}

// Adjacent returns the outgoing links of node id, in link-ID order. The
// row is shared and read-only.
func (t *Topology) Adjacent(id netsim.NodeID) []*netsim.Link {
	if t.off == nil {
		t.adjacency()
	}
	if int(id) >= len(t.off)-1 {
		return nil
	}
	lo, hi := t.off[id], t.off[id+1]
	return t.adj[lo:hi:hi]
}

// adjacency builds the rows from the link table: a count per source node,
// then one pass in link-ID order, so every row keeps that order.
func (t *Topology) adjacency() {
	links := t.Net.Links()
	off := make([]int32, t.Net.NumNodes()+1)
	for _, l := range links {
		off[l.From.ID()+1]++
	}
	for u := 1; u < len(off); u++ {
		off[u] += off[u-1]
	}
	adj := make([]*netsim.Link, len(links))
	for _, l := range links { // off[u] walks row u, ending where row u+1 starts
		u := l.From.ID()
		adj[off[u]] = l
		off[u]++
	}
	copy(off[1:], off)
	off[0] = 0
	t.off, t.adj = off, adj
}

// search fills d with breadth-first hop counts from node src, -1 where
// src is out of reach, and returns it. It is the only search routing runs:
// distTo fills the cached fields with it, and Detour a fresh one. A
// detour's search skips every link whose peer is down, since a walk down
// the field crosses a link's peer, not the link.
func (t *Topology) search(d []int32, src netsim.NodeID, detour bool) []int32 {
	for i := range d {
		d[i] = -1
	}
	d[src] = 0
	queue := append(t.queueBuf[:0], src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, l := range t.Adjacent(u) {
			if detour && (l.Peer == nil || l.Peer.Down()) {
				continue
			}
			if v := l.To.ID(); d[v] < 0 {
				d[v] = d[u] + 1
				queue = append(queue, v)
			}
		}
	}
	t.queueBuf = queue
	return d
}

// distBlock bounds, in bytes, the blocks the distance store is cut in.
const distBlock = 64 << 10

// field carves one node-indexed distance field from the distance store.
// The store is cut in blocks of up to distBlock bytes, none holding more
// fields than routing targets still lack one, so a topology routed to
// everywhere leaves no tail.
func (t *Topology) field() []int32 {
	n := t.Net.NumNodes()
	if len(t.fields) < n {
		k := max(1, min(t.unrouted, distBlock/(4*n)))
		t.fields = make([]int32, k*n)
	}
	t.unrouted--
	d := t.fields[:n:n]
	t.fields = t.fields[n:]
	return d
}

// targets counts the nodes routing searches from: one per host, its
// attachment when it has one (via), shared by the hosts it serves.
func (t *Topology) targets() int {
	vias := t.queueBuf[:0]
	for _, h := range t.Hosts {
		v, _ := t.via(h.ID())
		vias = append(vias, v)
	}
	slices.Sort(vias)
	t.queueBuf = vias[:0]
	return len(slices.Compact(vias))
}

// distTo returns (cached) BFS distances from every node TO dst, computed by
// BFS from dst (links are symmetric duplex pairs, so distances agree).
func (t *Topology) distTo(dst netsim.NodeID) []int32 {
	if t.dist == nil {
		t.dist = make([][]int32, t.Net.NumNodes())
		t.unrouted = t.targets()
	}
	if t.dist[dst] == nil {
		t.dist[dst] = t.search(t.field(), dst, false)
	}
	return t.dist[dst]
}

// via returns the node whose distance field routes to b, and the last hop
// from it to b, nil when it is b itself. A destination with a single
// duplex link is reached only through that link's far end, so the
// single-homed hosts of a rack share one field. The test is on the
// adjacency row, so multi-homed servers (BCube, DCell) keep a field of
// their own.
func (t *Topology) via(b netsim.NodeID) (netsim.NodeID, *netsim.Link) {
	if out := t.Adjacent(b); len(out) == 1 && out[0].Peer != nil {
		return out[0].To.ID(), out[0].Peer
	}
	return b, nil
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
		r.rev = t.sets.Take(len(r.fwd))
		for i, p := range r.fwd {
			r.rev[i] = netsim.ReverseInto(t.hops.Take(len(p)), p)
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
// so is the returned path: it is valid until the next call, and a caller
// that keeps it keeps a copy (paths carves one).
//
// The walk descends the distance field of b's via node and appends the
// last hop from there. pick still sees the last hop as a one-candidate
// choice, as it would at the end of a walk on b's own field.
func (t *Topology) pathVia(a, b netsim.NodeID, pick func([]*netsim.Link) *netsim.Link) []*netsim.Link {
	if a == b {
		return nil
	}
	via, last := t.via(b)
	if !t.descend(t.distTo(via), a, pick, false) {
		return nil
	}
	if last != nil {
		t.candBuf = append(t.candBuf[:0], last)
		t.walk = append(t.walk, pick(t.candBuf))
	}
	return t.walk
}

// descend walks field d down from node u to the node it was searched from,
// into t.walk, choosing among the equal-cost next hops with pick. It is
// the only descent routing runs. A detour's descent never takes a down
// link. It reports false when u is out of reach or the walk is cut.
func (t *Topology) descend(d []int32, u netsim.NodeID, pick func([]*netsim.Link) *netsim.Link, detour bool) bool {
	t.walk = t.walk[:0]
	if d[u] < 0 {
		return false
	}
	for d[u] > 0 {
		cands := t.candBuf[:0]
		for _, l := range t.Adjacent(u) {
			if d[l.To.ID()] == d[u]-1 && !(detour && l.Down()) {
				cands = append(cands, l)
			}
		}
		t.candBuf = cands[:0]
		if len(cands) == 0 {
			return false
		}
		l := pick(cands)
		t.walk = append(t.walk, l)
		u = l.To.ID()
	}
	return true
}

// lowestID is the deterministic pick: the equal-cost next hop with the
// lowest link ID.
func lowestID(c []*netsim.Link) *netsim.Link { return c[0] }

// Detour returns a shortest path of directed links from host a to host b
// that crosses no down link — failover route recomputation around failed
// links (DESIGN.md §11), nil when no route survives. It is Path's search
// and descent on a fresh field from b, ties broken by the lowest link ID;
// the cached fields assume no link is down, so a detour never touches
// them. It allocates: call it on fault events, not per packet.
func (t *Topology) Detour(a, b *netsim.Host) []*netsim.Link {
	if a == b {
		return nil
	}
	d := t.search(make([]int32, t.Net.NumNodes()), b.ID(), true)
	if !t.descend(d, a.ID(), lowestID, true) {
		return nil
	}
	return slices.Clone(t.walk)
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
// (Detour's, on failover); nothing may write a returned path in
// place. Paths are carved side by side in the topology's stores, each
// capacity-capped, so an append copies instead of reaching the next.
func (t *Topology) Paths(a, b *netsim.Host, maxK int) [][]*netsim.Link {
	return t.route(a, b, maxK).fwd
}

// route returns the memo entry for (a, b, k), computing its paths on a
// miss. Entries are carved: a map of pointers keeps its slots small.
func (t *Topology) route(a, b *netsim.Host, k int) *routes {
	key := routeKey{a.ID(), b.ID(), k}
	if r, ok := t.routes[key]; ok {
		return r
	}
	if t.routes == nil {
		t.routes = make(map[routeKey]*routes)
	}
	r := t.entries.New()
	r.fwd = t.paths(a, b, k)
	t.routes[key] = r
	return r
}

// paths computes Paths' answer; pathVia is the only walk it runs. Only
// accepted paths, and their set, are carved from the topology's stores;
// a candidate walk already found stays in pathVia's scratch.
func (t *Topology) paths(a, b *netsim.Host, maxK int) [][]*netsim.Link {
	found := t.found[:0]
	add := func(p []*netsim.Link) bool {
		if p == nil {
			return false
		}
		// Dedup by direct link-sequence comparison: links are unique
		// objects, so pointer equality along the path is exactly the old
		// "ID,ID,..." string key without the per-candidate allocations.
		// The candidate set is tiny (≤ maxK accepted + misses), so the
		// quadratic scan is cheaper than hashing.
		for _, q := range found {
			if pathEqual(p, q) {
				return false
			}
		}
		q := t.hops.Take(len(p))
		copy(q, p)
		found = append(found, q)
		return true
	}
	if add(t.pathVia(a.ID(), b.ID(), lowestID)) && maxK <= 1 {
		return t.keep(found)
	}
	if t.pathRng == nil {
		t.pathRng = rand.New(rand.NewSource(0))
	}
	// Seed restarts the source on the very stream NewSource(seed) would
	// give, without another 4.9 KB source per computation.
	rng := t.pathRng
	rng.Seed(int64(a.ID())<<20 ^ int64(b.ID()) ^ 0x5bd1e995)
	misses := 0
	for len(found) < maxK && misses < 64 {
		p := t.pathVia(a.ID(), b.ID(), func(c []*netsim.Link) *netsim.Link { return c[rng.Intn(len(c))] })
		if !add(p) {
			misses++
		}
	}
	return t.keep(found)
}

// keep carves the set of found paths, nil when there are none, and hands
// the scratch back.
func (t *Topology) keep(found [][]*netsim.Link) [][]*netsim.Link {
	t.found = found[:0]
	if len(found) == 0 {
		return nil
	}
	set := t.sets.Take(len(found))
	copy(set, found)
	return set
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
