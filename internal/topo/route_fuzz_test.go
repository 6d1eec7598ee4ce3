package topo

import (
	"maps"
	"slices"
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/sim"
)

// FuzzRoutes builds a random registered family at parameters its Check
// accepts (each parameter a small integer, at most 256 hosts), picks a
// host pair and k in 1..4, and requires the memoized Paths to equal
// refPaths — none when the pair is disconnected — and to come back as the
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
		src, dst := tp.Hosts[int(ai)%n], tp.Hosts[int(bi)%n]
		if src == dst {
			return
		}
		maxK := 1 + int(k)%4
		want := refPaths(tp, src, dst, maxK)
		if want[0] == nil {
			want = nil // disconnected: Paths offers none
		}
		var first [][]*netsim.Link
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				tp.Reset(sim.New(), seed)
			}
			got := tp.Paths(src, dst, maxK)
			if !pathsEqual(got, want) {
				t.Fatalf("%s %v seed %d pass %d: Paths(%d, %d, %d) = %v, reference %v", b.Name, p, seed, pass, src.ID(), dst.ID(), maxK, got, want)
			}
			if pass == 0 {
				first = got
			} else if !sameRoutes(got, first) {
				t.Fatalf("%s %v: Paths(%d, %d, %d) recomputed after Reset", b.Name, p, src.ID(), dst.ID(), maxK)
			}
		}
	})
}
