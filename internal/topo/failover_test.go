package topo

import (
	"testing"

	"pdq/internal/netsim"
)

func pathHas(p []*netsim.Link, l *netsim.Link) bool {
	for _, x := range p {
		if x == l || x == l.Peer {
			return true
		}
	}
	return false
}

func TestDetourFindsAlternate(t *testing.T) {
	tp := FatTree(4, 1)
	a, b := tp.Hosts[0], tp.Hosts[len(tp.Hosts)-1] // different pods: core crossing
	orig := tp.Path(a, b)
	validatePath(t, tp, a, b, orig)
	// Fail a core-facing hop of the original path; the fat tree has
	// parallel cores, so a detour must exist.
	failed := orig[2]
	failed.SetDuplexDown(true)
	alt := tp.Detour(a, b)
	if alt == nil {
		t.Fatal("no alternate path found in a fat tree with parallel cores")
	}
	validatePath(t, tp, a, b, alt)
	if pathHas(alt, failed) {
		t.Fatal("alternate path still crosses the failed link")
	}
	if len(alt) != len(orig) {
		t.Errorf("alternate path length %d, want %d (ECMP detour keeps distance)", len(alt), len(orig))
	}
	if again := tp.Path(a, b); !sameSlice(again, orig) {
		t.Errorf("Path(%d, %d) = %v after a detour, want the memoized %v", a.ID(), b.ID(), again, orig)
	}
}

func TestDetourDeterministic(t *testing.T) {
	tp := FatTree(4, 1)
	a, b := tp.Hosts[0], tp.Hosts[len(tp.Hosts)-1]
	tp.Path(a, b)[2].SetDuplexDown(true)
	first := tp.Detour(a, b)
	for i := 0; i < 5; i++ {
		if again := tp.Detour(a, b); !pathEqual(again, first) {
			t.Fatalf("Detour not deterministic: %v, then %v", first, again)
		}
	}
}

func TestDetourNoRoute(t *testing.T) {
	tp := SingleBottleneck(2, 1)
	a, b := tp.Hosts[0], tp.Hosts[2]
	a.Access.SetDuplexDown(true)
	if p := tp.Detour(a, b); p != nil {
		t.Fatalf("got a path around the only access link: %v", p)
	}
}

func TestDetourNothingDown(t *testing.T) {
	tp := SingleBottleneck(3, 1)
	a, b := tp.Hosts[0], tp.Hosts[3]
	p := tp.Detour(a, b)
	validatePath(t, tp, a, b, p)
}
