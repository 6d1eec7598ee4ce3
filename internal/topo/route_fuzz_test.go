package topo

import (
	"maps"
	"slices"
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/sim"
)

// FuzzRoutes builds a random registered family at parameters its Check
// accepts (each parameter a small integer, at most 256 hosts) and routes
// several host pairs on it, each with its own k in 1..4, starting from the
// pair (ai, bi). Every memoized Paths must equal refPaths — none when the
// pair is disconnected — and Routes' reverses must be netsim.ReversePath
// of its paths. Paths are carved from stores the later routes carve from
// too, so once every pair is routed each earlier path must still hold
// the links it was returned with, and every pair must come back as the
// same slices, before and after Reset. The seeds are one valid build per
// family.
func FuzzRoutes(f *testing.F) {
	families := BuilderList()
	for i, v := range [][3]uint8{{2, 3}, {4, 1}, {3, 2, 8}, {5}, {3, 4}} {
		f.Add(uint8(i), v[0], v[1], v[2], int64(1), uint16(0), uint16(7), uint8(i))
	}
	f.Fuzz(func(t *testing.T, family, v0, v1, v2 uint8, seed int64, ai, bi uint16, k uint8) {
		b := families[int(family)%len(families)]
		p := map[string]float64{}
		for i, name := range slices.Sorted(maps.Keys(b.Params)) {
			p[name] = float64([]uint8{v0, v1, v2}[i%3] % 9)
		}
		b, p, err := ResolveBuilder(b.Name, p)
		if err != nil {
			return
		}
		if n := b.Hosts(p); n < 2 || n > 256 {
			return
		}
		tp := b.Build(p, seed)
		n := len(tp.Hosts)
		type routed struct {
			src, dst *netsim.Host
			maxK     int
			got      [][]*netsim.Link // the slices Paths returned
			links    [][]*netsim.Link // copies of their links then
		}
		var all []routed
		for i := 0; i < 8; i++ {
			src, dst := tp.Hosts[(int(ai)+i)%n], tp.Hosts[(int(bi)+3*i)%n]
			if src == dst {
				continue
			}
			maxK := 1 + (int(k)+i)%4
			want := refPaths(tp, src, dst, maxK)
			if want[0] == nil {
				want = nil // disconnected: Paths offers none
			}
			got := tp.Paths(src, dst, maxK)
			if !pathsEqual(got, want) {
				t.Fatalf("%s %v seed %d: Paths(%d, %d, %d) = %v, reference %v", b.Name, p, seed, src.ID(), dst.ID(), maxK, got, want)
			}
			if len(got) > 0 {
				fwd, rev := tp.Routes(src, dst, maxK)
				if !sameRoutes(fwd, got) || len(rev) != len(fwd) {
					t.Fatalf("%s %v: Routes(%d, %d, %d) does not return Paths' slices", b.Name, p, src.ID(), dst.ID(), maxK)
				}
				for j := range fwd {
					if !pathEqual(rev[j], netsim.ReversePath(fwd[j])) {
						t.Fatalf("%s %v: Routes(%d, %d, %d) reverse %d = %v, want the reverse of %v", b.Name, p, src.ID(), dst.ID(), maxK, j, rev[j], fwd[j])
					}
				}
			}
			links := make([][]*netsim.Link, len(got))
			for j, q := range got {
				links[j] = slices.Clone(q)
			}
			all = append(all, routed{src, dst, maxK, got, links})
		}
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				tp.Reset(sim.New(), seed)
			}
			for _, r := range all {
				if !pathsEqual(r.got, r.links) {
					t.Fatalf("%s %v: a path of (%d, %d, %d) changed after later routes: %v, was %v", b.Name, p, r.src.ID(), r.dst.ID(), r.maxK, r.got, r.links)
				}
				if again := tp.Paths(r.src, r.dst, r.maxK); !sameRoutes(again, r.got) {
					t.Fatalf("%s %v pass %d: Paths(%d, %d, %d) recomputed", b.Name, p, pass, r.src.ID(), r.dst.ID(), r.maxK)
				}
			}
		}
	})
}
