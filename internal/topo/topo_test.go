package topo

import (
	"fmt"
	"hash/fnv"
	"testing"

	"pdq/internal/netsim"
)

// validatePath checks that p is a contiguous directed walk from a to b.
// Interior hosts are allowed only in server-centric topologies (BCube),
// where servers relay.
func validatePath(t *testing.T, tp *Topology, a, b *netsim.Host, p []*netsim.Link) {
	t.Helper()
	if len(p) == 0 {
		t.Fatalf("%s: empty path %d->%d", tp.Name, a.ID(), b.ID())
	}
	if p[0].From.ID() != a.ID() {
		t.Fatalf("path does not start at %d", a.ID())
	}
	if p[len(p)-1].To.ID() != b.ID() {
		t.Fatalf("path does not end at %d", b.ID())
	}
	for i := 1; i < len(p); i++ {
		if p[i].From.ID() != p[i-1].To.ID() {
			t.Fatalf("discontiguous path at hop %d", i)
		}
	}
	serverCentric := len(tp.Name) >= 5 && tp.Name[:5] == "bcube"
	if !serverCentric {
		for i := 0; i < len(p)-1; i++ {
			if _, ok := p[i].To.(*netsim.Switch); !ok {
				t.Fatalf("interior node %d is not a switch", p[i].To.ID())
			}
		}
	}
}

func allPairsValid(t *testing.T, tp *Topology) {
	t.Helper()
	for _, a := range tp.Hosts {
		for _, b := range tp.Hosts {
			if a == b {
				continue
			}
			validatePath(t, tp, a, b, tp.Path(a, b))
		}
	}
}

func TestSingleBottleneck(t *testing.T) {
	tp := SingleBottleneck(5, 1)
	if len(tp.Hosts) != 6 || len(tp.Switches) != 1 {
		t.Fatalf("hosts=%d switches=%d", len(tp.Hosts), len(tp.Switches))
	}
	recv := tp.Hosts[5]
	for i := 0; i < 5; i++ {
		p := tp.Path(tp.Hosts[i], recv)
		if len(p) != 2 {
			t.Fatalf("path len %d, want 2", len(p))
		}
		// All sender paths share the switch→receiver bottleneck link.
		if p[1] != tp.Path(tp.Hosts[0], recv)[1] {
			t.Fatal("bottleneck link not shared")
		}
	}
}

func TestSingleRootedTree(t *testing.T) {
	tp := SingleRootedTree(4, 3, 1)
	if len(tp.Hosts) != 12 || len(tp.Switches) != 5 {
		t.Fatalf("hosts=%d switches=%d, want 12 and 5 (17-node tree)", len(tp.Hosts), len(tp.Switches))
	}
	allPairsValid(t, tp)
	// Intra-rack: 2 hops; inter-rack: 4 hops.
	if p := tp.Path(tp.Hosts[0], tp.Hosts[1]); len(p) != 2 {
		t.Errorf("intra-rack path len %d, want 2", len(p))
	}
	if p := tp.Path(tp.Hosts[0], tp.Hosts[3]); len(p) != 4 {
		t.Errorf("inter-rack path len %d, want 4", len(p))
	}
	if d := tp.Diameter(); d != 4 {
		t.Errorf("diameter %d, want 4", d)
	}
}

func TestFatTree(t *testing.T) {
	for _, k := range []int{4, 6} {
		tp := FatTree(k, 1)
		wantHosts := k * k * k / 4
		wantSw := k*k/4 + k*k // core + (agg+edge)
		if len(tp.Hosts) != wantHosts {
			t.Fatalf("k=%d: hosts=%d want %d", k, len(tp.Hosts), wantHosts)
		}
		if len(tp.Switches) != wantSw {
			t.Fatalf("k=%d: switches=%d want %d", k, len(tp.Switches), wantSw)
		}
		if d := tp.Diameter(); d != 6 {
			t.Errorf("k=%d: diameter %d, want 6", k, d)
		}
		if k == 4 {
			allPairsValid(t, tp)
		}
	}
}

func TestFatTreeBadK(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("FatTree(3) should panic")
		}
	}()
	FatTree(3, 1)
}

func TestBCube(t *testing.T) {
	tp := BCube(2, 3, 1)
	if len(tp.Hosts) != 16 {
		t.Fatalf("hosts=%d want 16", len(tp.Hosts))
	}
	if len(tp.Switches) != 4*8 {
		t.Fatalf("switches=%d want 32", len(tp.Switches))
	}
	// Every host has k+1 = 4 interfaces.
	for _, h := range tp.Hosts {
		if got := len(tp.Adjacent(h.ID())); got != 4 {
			t.Fatalf("host %d degree %d, want 4", h.ID(), got)
		}
	}
	allPairsValid(t, tp)
	// BCube(2,3): hosts differing in one address digit are 2 hops apart.
	if p := tp.Path(tp.Hosts[0], tp.Hosts[1]); len(p) != 2 {
		t.Errorf("1-digit path len %d, want 2", len(p))
	}
	// Multipath: host 0 and host 15 differ in 4 digits → at least 4
	// disjoint shortest paths exist; we should find several.
	ps := tp.Paths(tp.Hosts[0], tp.Hosts[15], 8)
	if len(ps) < 3 {
		t.Errorf("found %d ECMP paths 0->15, want >= 3", len(ps))
	}
	for _, p := range ps {
		validatePath(t, tp, tp.Hosts[0], tp.Hosts[15], p)
	}
}

func TestJellyfish(t *testing.T) {
	tp := Jellyfish(10, 4, 2, 7)
	if len(tp.Hosts) != 20 || len(tp.Switches) != 10 {
		t.Fatalf("hosts=%d switches=%d", len(tp.Hosts), len(tp.Switches))
	}
	// Each switch: 2 host links + 4 network links.
	for _, sw := range tp.Switches {
		if got := len(tp.Adjacent(sw.ID())); got != 6 {
			t.Fatalf("switch %d degree %d, want 6", sw.ID(), got)
		}
	}
	allPairsValid(t, tp)
}

func TestJellyfishDeterministic(t *testing.T) {
	a := Jellyfish(12, 4, 1, 99)
	b := Jellyfish(12, 4, 1, 99)
	la, lb := a.Net.Links(), b.Net.Links()
	if len(la) != len(lb) {
		t.Fatal("different link counts for same seed")
	}
	for i := range la {
		if la[i].From.ID() != lb[i].From.ID() || la[i].To.ID() != lb[i].To.ID() {
			t.Fatalf("link %d differs for same seed", i)
		}
	}
}

// linkDigest hashes the directed link list in creation order, which is what
// link IDs, and so every tie-break downstream, depend on.
func linkDigest(tp *Topology) uint64 {
	h := fnv.New64a()
	for _, l := range tp.Net.Links() {
		fmt.Fprintf(h, "%d>%d,", l.From.ID(), l.To.ID())
	}
	return h.Sum64()
}

// TestJellyfishKeepsPairedGraphs pins the link lists of parameter sets the
// restart-on-collision generator already built (digests recorded before it
// learned to grow graphs): goldens and example scenarios hang off them.
func TestJellyfishKeepsPairedGraphs(t *testing.T) {
	for _, c := range []struct {
		switches, degree, hostsPer int
		seed                       int64
		want                       uint64
	}{
		{8, 4, 2, 42, 0x1c7f156ebaa58c1},
		{8, 4, 2, 1, 0xb66e0aee1d75dc6d},
		{10, 4, 2, 7, 0xef3df297a4c29d89},
		{12, 4, 1, 99, 0x94b0b52a9af76def},
		{20, 5, 1, 3, 0x39af9ff8cbde8b},
		{40, 3, 1, 11, 0xe2942900e10ae41b},
	} {
		if got := linkDigest(Jellyfish(c.switches, c.degree, c.hostsPer, c.seed)); got != c.want {
			t.Errorf("Jellyfish(%d, %d, %d, %d): link digest %#x, want %#x", c.switches, c.degree, c.hostsPer, c.seed, got, c.want)
		}
	}
}

// TestJellyfishGrownGraphs covers the graphs the pairing model cannot
// draw: the paper's degree 16 at every fig8d size (18 switches is the
// tightest, one edge short of complete), and a low-degree seed whose
// pairings all collide. Each must be simple, regular, connected and the
// same graph again for the same seed.
func TestJellyfishGrownGraphs(t *testing.T) {
	for _, c := range []struct{ switches, degree int }{{18, 16}, {32, 16}, {64, 16}, {128, 16}, {16, 6}} {
		tp := Jellyfish(c.switches, c.degree, 1, 5)
		isSwitch := map[netsim.NodeID]bool{}
		for _, sw := range tp.Switches {
			isSwitch[sw.ID()] = true
		}
		for _, sw := range tp.Switches {
			peers := map[netsim.NodeID]bool{}
			for _, l := range tp.Adjacent(sw.ID()) {
				to := l.To.ID()
				if !isSwitch[to] {
					continue
				}
				if to == sw.ID() || peers[to] {
					t.Fatalf("%d switches: switch %d has a loop or parallel link to %d", c.switches, sw.ID(), to)
				}
				peers[to] = true
			}
			if len(peers) != c.degree {
				t.Fatalf("%d switches: switch %d has network degree %d, want %d", c.switches, sw.ID(), len(peers), c.degree)
			}
		}
		for _, d := range tp.distancesFrom(tp.Hosts[0].ID()) {
			if d < 0 {
				t.Fatalf("%d switches: graph is not connected", c.switches)
			}
		}
		if linkDigest(tp) != linkDigest(Jellyfish(c.switches, c.degree, 1, 5)) {
			t.Errorf("%d switches: same seed built a different graph", c.switches)
		}
		if linkDigest(tp) == linkDigest(Jellyfish(c.switches, c.degree, 1, 6)) {
			t.Errorf("%d switches: seeds 5 and 6 built the same graph", c.switches)
		}
	}
}

func TestPathDeterministic(t *testing.T) {
	tp := FatTree(4, 1)
	a, b := tp.Hosts[0], tp.Hosts[15]
	p1 := tp.Path(a, b)
	p2 := tp.Path(a, b)
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatal("Path not deterministic")
		}
	}
}

func TestPathsFirstEqualsPath(t *testing.T) {
	tp := FatTree(4, 1)
	a, b := tp.Hosts[0], tp.Hosts[15]
	ps := tp.Paths(a, b, 4)
	p := tp.Path(a, b)
	if len(ps) == 0 {
		t.Fatal("no paths")
	}
	for i := range p {
		if ps[0][i] != p[i] {
			t.Fatal("Paths[0] != Path")
		}
	}
	// All returned paths are distinct and same length (equal cost).
	for i := 1; i < len(ps); i++ {
		if len(ps[i]) != len(p) {
			t.Fatal("non-equal-cost path returned")
		}
	}
}

func TestFatTreeECMPCount(t *testing.T) {
	tp := FatTree(4, 1)
	// Hosts in different pods: (k/2)² = 4 distinct shortest paths exist.
	ps := tp.Paths(tp.Hosts[0], tp.Hosts[15], 16)
	if len(ps) != 4 {
		t.Errorf("cross-pod ECMP paths = %d, want 4", len(ps))
	}
}

func TestReversePathSymmetry(t *testing.T) {
	tp := SingleRootedTree(4, 3, 1)
	a, b := tp.Hosts[0], tp.Hosts[11]
	fwd := tp.Path(a, b)
	rev := netsim.ReversePath(fwd)
	validatePath(t, tp, b, a, rev)
}
