package topo

import (
	"maps"
	"math"
	"slices"
	"testing"
)

// FuzzTopologyBuild gives a random registered family arbitrary parameter
// values — NaN, infinities, negatives, fractions, huge numbers — and
// requires what its Check accepts to build without a panic into exactly
// Hosts(p) hosts and Switches(p) switches. Only builds of at most 2¹⁴
// links run, so that each input stays fast: every family links hosts to
// switches and switches to one another, at most once a pair, so h·s + s²/2
// bounds its links. The seeds are one valid build per family and the
// special values.
func FuzzTopologyBuild(f *testing.F) {
	families := BuilderList()
	for i := range families {
		f.Add(uint8(i), 4.0, 2.0, 3.0, int64(1))
		f.Add(uint8(i), 3.0, 2.0, 4.0, int64(1))
		f.Add(uint8(i), math.NaN(), math.Inf(1), math.Inf(-1), int64(2))
		f.Add(uint8(i), -1.0, 1e300, 2.5, int64(3))
	}
	f.Fuzz(func(t *testing.T, family uint8, a, b, c float64, seed int64) {
		fam := families[int(family)%len(families)]
		p := map[string]float64{}
		for i, name := range slices.Sorted(maps.Keys(fam.Params)) {
			p[name] = []float64{a, b, c}[i%3]
		}
		fam, p, err := ResolveBuilder(fam.Name, p)
		if err != nil {
			return
		}
		h, s := fam.Hosts(p), fam.Switches(p)
		if h < 0 || s < 0 {
			t.Fatalf("%s %v: %d hosts, %d switches", fam.Name, p, h, s)
		}
		if h*s+s*s/2 > 1<<14 {
			return
		}
		tp := fam.Build(p, seed)
		if len(tp.Hosts) != h || len(tp.Switches) != s {
			t.Fatalf("%s %v: built %d hosts and %d switches, Hosts and Switches say %d and %d",
				fam.Name, p, len(tp.Hosts), len(tp.Switches), h, s)
		}
	})
}
