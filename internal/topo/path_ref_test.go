package topo

import (
	"math/rand"
	"testing"

	"pdq/internal/netsim"
)

// refPathVia is the routing pathVia replaced: one breadth-first search from
// the destination itself, for every destination, and a descent of that
// field. It shares nothing with pathVia but the adjacency lists.
func refPathVia(t *Topology, a, b netsim.NodeID, pick func([]*netsim.Link) *netsim.Link) []*netsim.Link {
	if a == b {
		return nil
	}
	d := make([]int32, t.Net.NumNodes())
	for i := range d {
		d[i] = -1
	}
	d[b] = 0
	for queue := []netsim.NodeID{b}; len(queue) > 0; queue = queue[1:] {
		for _, l := range t.Adjacent(queue[0]) {
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
		for _, l := range t.Adjacent(u) {
			if d[l.To.ID()] == d[u]-1 {
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
	add(refPathVia(t, a.ID(), b.ID(), func(c []*netsim.Link) *netsim.Link { return c[0] }))
	rng := rand.New(rand.NewSource(int64(a.ID())<<20 ^ int64(b.ID()) ^ 0x5bd1e995))
	for misses := 0; len(out) < maxK && misses < 64; {
		if !add(refPathVia(t, a.ID(), b.ID(), func(c []*netsim.Link) *netsim.Link { return c[rng.Intn(len(c))] })) {
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

// TestPathsMatchPerHostBFS checks Path, Paths and an unblocked
// PathExcluding link for link against the per-destination reference, for
// every ordered host pair: single-homed hosts (routed through their
// attachment's shared field), multi-homed BCube servers (their own field),
// same-switch pairs and a source that is the destination's attachment.
func TestPathsMatchPerHostBFS(t *testing.T) {
	for _, tp := range []*Topology{
		SingleRootedTree(4, 3, 1),
		SingleBottleneck(5, 1),
		FatTree(4, 1),
		BCube(2, 2, 1),
		BCube(4, 1, 1),
		Jellyfish(8, 4, 2, 42),
		hostLine(),
	} {
		for _, a := range tp.Hosts {
			for _, b := range tp.Hosts {
				if a == b {
					continue
				}
				want := refPathVia(tp, a.ID(), b.ID(), func(c []*netsim.Link) *netsim.Link { return c[0] })
				if got := tp.Path(a, b); !pathEqual(got, want) {
					t.Fatalf("%s: Path(%d, %d) = %v, reference %v", tp.Name, a.ID(), b.ID(), got, want)
				}
				none := func(*netsim.Link) bool { return false }
				if got := tp.PathExcluding(a, b, none); !pathEqual(got, want) {
					t.Fatalf("%s: PathExcluding(%d, %d) = %v, reference %v", tp.Name, a.ID(), b.ID(), got, want)
				}
				got, wantK := tp.Paths(a, b, 4), refPaths(tp, a, b, 4)
				if len(got) != len(wantK) {
					t.Fatalf("%s: Paths(%d, %d) has %d paths, reference %d", tp.Name, a.ID(), b.ID(), len(got), len(wantK))
				}
				for i := range got {
					if !pathEqual(got[i], wantK[i]) {
						t.Fatalf("%s: Paths(%d, %d)[%d] = %v, reference %v", tp.Name, a.ID(), b.ID(), i, got[i], wantK[i])
					}
				}
			}
		}
	}
}

// TestPathSharesAttachmentField pins what the shared field buys: once one
// host of an edge switch has been routed to, routing to its rack neighbour
// runs no search and allocates only the returned path.
func TestPathSharesAttachmentField(t *testing.T) {
	tp := FatTree(4, 1)
	src, first, second := tp.Hosts[15], tp.Hosts[0], tp.Hosts[1]
	if first.Access.To != second.Access.To {
		t.Fatal("hosts 0 and 1 are expected on one edge switch")
	}
	tp.Path(src, first)
	if allocs := testing.AllocsPerRun(20, func() { tp.Path(src, second) }); allocs != 1 {
		t.Errorf("Path to a second host of a visited edge switch allocates %.0f times, want 1 (the path)", allocs)
	}
	// A multi-homed server is its own attachment point: the field is per host.
	bc := BCube(2, 2, 1)
	bc.Path(bc.Hosts[7], bc.Hosts[0])
	if bc.dist[bc.Hosts[0].ID()] == nil {
		t.Error("BCube server has no distance field of its own")
	}
}
