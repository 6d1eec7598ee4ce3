package workload

import (
	"math/rand"
	"strings"
	"testing"
)

func TestMakePatternByName(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name   string
		params map[string]float64
		want   string
	}{
		{"aggregation", nil, "Aggregation"},
		{"stride", map[string]float64{"i": 6}, "Stride(6)"},
		{"staggered", map[string]float64{"p": 0.7}, "StaggeredProb(0.7)"},
		{"permutation", nil, "RandomPermutation"},
	}
	for _, tc := range cases {
		p, err := MakePattern(tc.name, tc.params)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if p.Name() != tc.want {
			t.Errorf("MakePattern(%s).Name() = %q, want %q", tc.name, p.Name(), tc.want)
		}
		if pairs := p.Pairs(12, nil, rng); len(pairs) == 0 {
			t.Errorf("%s produced no pairs", tc.name)
		}
	}
}

func TestMakeSizeDistByName(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, name := range sizeDists.Names() {
		d, err := MakeSizeDist(name, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := 0; i < 100; i++ {
			if s := d.Sample(rng); s < 512 {
				t.Errorf("%s sampled %d bytes, implausibly small", name, s)
				break
			}
		}
	}
	// uniform-mean must match the paper's hand-constructed distribution.
	d, err := MakeSizeDist("uniform-mean", map[string]float64{"mean_kb": 100})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := d.(Uniform), UniformMean(100<<10); got != want {
		t.Errorf("uniform-mean built %+v, want %+v", got, want)
	}
}

func TestRegistryUnknownNames(t *testing.T) {
	if _, err := MakePattern("nope", nil); err == nil || !strings.Contains(err.Error(), `unknown pattern "nope"`) {
		t.Errorf("pattern error = %v", err)
	}
	if _, err := MakePattern("stride", map[string]float64{"nope": 1}); err == nil || !strings.Contains(err.Error(), `unknown parameter "nope"`) {
		t.Errorf("pattern param error = %v", err)
	}
	if _, err := MakeSizeDist("nope", nil); err == nil || !strings.Contains(err.Error(), `unknown size distribution "nope"`) {
		t.Errorf("size dist error = %v", err)
	}
}

func TestWebSearchSizeDistShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := WebSearchSizeDist{}
	var small, large int
	const n = 20000
	for i := 0; i < n; i++ {
		s := d.Sample(rng)
		if s <= 100<<10 {
			small++
		}
		if s >= 1<<20 {
			large++
		}
		if s > 31<<20 {
			t.Fatalf("sample %d exceeds the 30 MB background cap", s)
		}
	}
	// ~70% query/update mice, ~10% multi-MB background flows.
	if f := float64(small) / n; f < 0.6 || f > 0.8 {
		t.Errorf("%.2f of flows ≤100 KB, want ≈0.70", f)
	}
	if f := float64(large) / n; f < 0.05 || f > 0.18 {
		t.Errorf("%.2f of flows ≥1 MB, want ≈0.10", f)
	}
}
