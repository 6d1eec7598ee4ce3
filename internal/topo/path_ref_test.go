package topo

import (
	"math/rand"
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/sim"
)

// refAdjacent is the adjacency the reference routes on, read straight off
// the link table: each node's outgoing links in link-ID order.
func refAdjacent(t *Topology) [][]*netsim.Link {
	adj := make([][]*netsim.Link, t.Net.NumNodes())
	for _, l := range t.Net.Links() {
		adj[l.From.ID()] = append(adj[l.From.ID()], l)
	}
	return adj
}

// refPathVia is the routing pathVia replaced: one breadth-first search from
// the destination itself, for every destination, and a descent of that
// field. It shares nothing with pathVia, not even the adjacency rows. With
// down set it is a failover detour: the search skips a link whose peer is
// down and the descent never takes a down link.
func refPathVia(t *Topology, a, b netsim.NodeID, pick func([]*netsim.Link) *netsim.Link, down bool) []*netsim.Link {
	if a == b {
		return nil
	}
	adj := refAdjacent(t)
	d := make([]int32, t.Net.NumNodes())
	for i := range d {
		d[i] = -1
	}
	d[b] = 0
	for queue := []netsim.NodeID{b}; len(queue) > 0; queue = queue[1:] {
		for _, l := range adj[queue[0]] {
			if down && l.Peer.Down() {
				continue
			}
			if v := l.To.ID(); d[v] < 0 {
				d[v] = d[queue[0]] + 1
				queue = append(queue, v)
			}
		}
	}
	if d[a] < 0 {
		return nil
	}
	var path []*netsim.Link
	for u := a; u != b; {
		var cands []*netsim.Link
		for _, l := range adj[u] {
			if d[l.To.ID()] == d[u]-1 && !(down && l.Down()) {
				cands = append(cands, l)
			}
		}
		l := pick(cands)
		path = append(path, l)
		u = l.To.ID()
	}
	return path
}

// refPaths is Paths over refPathVia: same seed, same draws, same dedup.
func refPaths(t *Topology, a, b *netsim.Host, maxK int) [][]*netsim.Link {
	var out [][]*netsim.Link
	add := func(p []*netsim.Link) bool {
		for _, q := range out {
			if pathEqual(p, q) {
				return false
			}
		}
		out = append(out, p)
		return true
	}
	add(refPathVia(t, a.ID(), b.ID(), lowestID, false))
	rng := rand.New(rand.NewSource(int64(a.ID())<<20 ^ int64(b.ID()) ^ 0x5bd1e995))
	for misses := 0; len(out) < maxK && misses < 64; {
		if !add(refPathVia(t, a.ID(), b.ID(), func(c []*netsim.Link) *netsim.Link { return c[rng.Intn(len(c))] }, false)) {
			misses++
		}
	}
	return out
}

// hostLine is three relaying servers in a row with no switch, the smallest
// DCell-style case: the end hosts are single-homed and their attachment
// point is itself a host, so Path(middle, end) starts at the attachment.
func hostLine() *Topology {
	t := New("host-line", 1)
	h0, h1, h2 := t.addHost(), t.addHost(), t.addHost()
	t.connect(h0, h1)
	t.connect(h1, h2)
	return t
}

// TestPathsMatchPerHostBFS checks Path, Paths and a Detour with no link
// down link for link against the per-destination reference, for
// every ordered host pair: single-homed hosts (routed through their
// attachment's shared field), multi-homed BCube servers (their own field),
// same-switch pairs and a source that is the destination's attachment.
// Path and Paths are memoized: a second call, before or after Reset,
// returns the very slices of the first, and Routes' reverses are the
// reverses of those paths. Every adjacency row is the link table's.
func TestPathsMatchPerHostBFS(t *testing.T) {
	for _, tp := range refTopologies() {
		type memo struct {
			path  []*netsim.Link
			paths [][]*netsim.Link
		}
		for u, row := range refAdjacent(tp) {
			if got := tp.Adjacent(netsim.NodeID(u)); !pathEqual(got, row) {
				t.Fatalf("%s: Adjacent(%d) = %v, want the link table's %v", tp.Name, u, got, row)
			}
		}
		first := map[[2]int]memo{}
		for pass := 0; pass < 3; pass++ {
			if pass == 2 {
				tp.Reset(sim.New(), 7)
			}
			for i, a := range tp.Hosts {
				for j, b := range tp.Hosts {
					if a == b {
						continue
					}
					want := refPathVia(tp, a.ID(), b.ID(), lowestID, false)
					path := tp.Path(a, b)
					if !pathEqual(path, want) {
						t.Fatalf("%s pass %d: Path(%d, %d) = %v, reference %v", tp.Name, pass, a.ID(), b.ID(), path, want)
					}
					if got := tp.Detour(a, b); !pathEqual(got, want) {
						t.Fatalf("%s: Detour(%d, %d) = %v, reference %v", tp.Name, a.ID(), b.ID(), got, want)
					}
					paths, wantK := tp.Paths(a, b, 4), refPaths(tp, a, b, 4)
					if !pathsEqual(paths, wantK) {
						t.Fatalf("%s pass %d: Paths(%d, %d) = %v, reference %v", tp.Name, pass, a.ID(), b.ID(), paths, wantK)
					}
					fwd, rev := tp.Routes(a, b, 4)
					if !sameRoutes(fwd, paths) || len(rev) != len(fwd) {
						t.Fatalf("%s: Routes(%d, %d) does not return Paths' slices", tp.Name, a.ID(), b.ID())
					}
					for k := range fwd {
						if !pathEqual(rev[k], netsim.ReversePath(fwd[k])) {
							t.Fatalf("%s: Routes(%d, %d) reverse %d = %v, want the reverse of %v", tp.Name, a.ID(), b.ID(), k, rev[k], fwd[k])
						}
					}
					key := [2]int{i, j}
					if pass == 0 {
						first[key] = memo{path, paths}
						continue
					}
					if m := first[key]; !sameSlice(path, m.path) || !sameRoutes(paths, m.paths) {
						t.Fatalf("%s pass %d: Path/Paths(%d, %d) recomputed, want the memoized slices", tp.Name, pass, a.ID(), b.ID())
					}
				}
			}
		}
	}
}

// refTopologies are the topologies routing is checked on against the
// reference.
func refTopologies() []*Topology {
	return []*Topology{
		SingleRootedTree(4, 3, 1),
		SingleBottleneck(5, 1),
		FatTree(4, 1),
		BCube(2, 2, 1),
		BCube(4, 1, 1),
		Jellyfish(8, 4, 2, 42),
		hostLine(),
	}
}

// TestDetoursMatchReference checks Detour link for link against the
// reference detour, for every ordered host pair, with random sets of
// cables down on every topology: none to a few, so some pairs detour at
// equal cost, some take a longer way and some are cut off. A detour's
// field is its own: the distance store gives out no field for it.
func TestDetoursMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tp := range refTopologies() {
		links := tp.Net.Links()
		tp.Path(tp.Hosts[0], tp.Hosts[1]) // start the distance store
		fields, unrouted := len(tp.fields), tp.unrouted
		for trial := 0; trial < 8; trial++ {
			var down []*netsim.Link
			for n := rng.Intn(4); len(down) < n; {
				l := links[rng.Intn(len(links))]
				l.SetDuplexDown(true)
				down = append(down, l)
			}
			for _, a := range tp.Hosts {
				for _, b := range tp.Hosts {
					want := refPathVia(tp, a.ID(), b.ID(), lowestID, true)
					if got := tp.Detour(a, b); !pathEqual(got, want) {
						t.Fatalf("%s, %v down: Detour(%d, %d) = %v, reference %v", tp.Name, down, a.ID(), b.ID(), got, want)
					}
				}
			}
			for _, l := range down {
				l.SetDuplexDown(false)
			}
		}
		if len(tp.fields) != fields || tp.unrouted != unrouted {
			t.Errorf("%s: detours took fields from the distance store", tp.Name)
		}
	}
}

// pathsEqual reports whether two path sets hold the same paths in order.
func pathsEqual(a, b [][]*netsim.Link) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !pathEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// sameSlice reports whether a and b share their backing array and length.
func sameSlice(a, b []*netsim.Link) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// sameRoutes reports whether two path sets are the same slices.
func sameRoutes(a, b [][]*netsim.Link) bool {
	if len(a) != len(b) || (len(a) > 0 && &a[0] != &b[0]) {
		return false
	}
	for i := range a {
		if !sameSlice(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestPathSharesAttachmentField pins what the shared field buys, and what
// the memo buys on top: once one host of an edge switch has been routed
// to, routing to its rack neighbour runs no search and allocates only what
// the memo keeps, and asking again allocates nothing.
func TestPathSharesAttachmentField(t *testing.T) {
	tp := FatTree(4, 1)
	src, first, second := tp.Hosts[15], tp.Hosts[0], tp.Hosts[1]
	if first.Access.To != second.Access.To {
		t.Fatal("hosts 0 and 1 are expected on one edge switch")
	}
	tp.Path(src, first)
	dist := len(tp.dist[first.Access.To.ID()])
	tp.Path(src, second)
	if tp.dist[second.ID()] != nil || len(tp.dist[first.Access.To.ID()]) != dist {
		t.Error("routing to a rack neighbour ran a search of its own")
	}
	if allocs := testing.AllocsPerRun(20, func() { tp.Path(src, second) }); allocs != 0 {
		t.Errorf("a memoized Path allocates %.0f times, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(20, func() { tp.Routes(src, second, 1) }); allocs != 0 {
		t.Errorf("memoized Routes allocate %.0f times after the first call, want 0", allocs)
	}
	// A multi-homed server is its own attachment point: the field is per host.
	bc := BCube(2, 2, 1)
	bc.Path(bc.Hosts[7], bc.Hosts[0])
	if bc.dist[bc.Hosts[0].ID()] == nil {
		t.Error("BCube server has no distance field of its own")
	}
}
