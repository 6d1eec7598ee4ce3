package stats

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func TestWeightedPercentileSorted(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		ws   []float64
		p    float64
		want float64
	}{
		{"empty", nil, nil, 50, 0},
		{"mismatched lengths", []float64{1, 2}, []float64{1}, 50, 0},
		{"zero total weight", []float64{1, 2, 3}, []float64{0, 0, 0}, 50, 0},
		{"single sample", []float64{7}, []float64{3}, 50, 7},
		{"p<=0 clamps low", []float64{1, 2, 3}, []float64{1, 1, 1}, 0, 1},
		{"p>=100 clamps high", []float64{1, 2, 3}, []float64{1, 1, 1}, 100, 3},
		{"equal-weight median", []float64{1, 2, 3}, []float64{1, 1, 1}, 50, 2},
		// 98% of the mass sits at 100 (midpoint 51); the median target 50
		// interpolates nearly all the way from 2: 2 + (50−1.5)/(51−1.5)·98.
		{"heavy tail dominates", []float64{1, 2, 100}, []float64{1, 1, 98}, 50, 2 + 48.5/49.5*98},
		{"interpolates between midpoints", []float64{0, 10}, []float64{1, 1}, 50, 5},
		// Midpoints sit at 1.5 and 3.5 of total weight 4; the median
		// target 2 interpolates a quarter of the way: 2.5.
		{"weight shifts the median", []float64{0, 10}, []float64{3, 1}, 50, 2.5},
		{"below first midpoint clamps", []float64{4, 8}, []float64{1, 1}, 10, 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := WeightedPercentileSorted(c.xs, c.ws, c.p)
			if math.Abs(got-c.want) > 1e-12 {
				t.Fatalf("WeightedPercentileSorted(%v, %v, %g) = %g, want %g", c.xs, c.ws, c.p, got, c.want)
			}
		})
	}
}

// With equal weights the midpoint grid is offset from PercentileSorted's
// by at most half a position, so the two must agree to within half the
// largest adjacent sample gap — the convention anchor to PercentileSorted.
func TestWeightedPercentileNearUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	xs := make([]float64, 40)
	ws := make([]float64, 40)
	for i := range xs {
		xs[i] = rng.Float64() * 100
		ws[i] = 2.5
	}
	sort.Float64s(xs)
	maxGap := 0.0
	for i := 1; i < len(xs); i++ {
		if g := xs[i] - xs[i-1]; g > maxGap {
			maxGap = g
		}
	}
	for p := 0.0; p <= 100; p += 2.5 {
		want := PercentileSorted(xs, p)
		got := WeightedPercentileSorted(xs, ws, p)
		if math.Abs(got-want) > maxGap/2+1e-9 {
			t.Fatalf("p=%g: weighted %g vs unweighted %g differs by more than half the largest gap %g", p, got, want, maxGap)
		}
	}
}

func TestWeightedPercentileMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, 25)
	ws := make([]float64, 25)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ws[i] = rng.Float64() + 0.01
	}
	sort.Float64s(xs)
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p++ {
		v := WeightedPercentileSorted(xs, ws, p)
		if v < prev {
			t.Fatalf("weighted percentile not monotone at p=%g: %g < %g", p, v, prev)
		}
		prev = v
	}
}

func TestECDFAtSorted(t *testing.T) {
	cases := []struct {
		name string
		xs   []float64
		x    float64
		want float64
	}{
		{"empty", nil, 1, 0},
		{"below all", []float64{1, 2, 3}, 0.5, 0},
		{"at first", []float64{1, 2, 3}, 1, 1.0 / 3},
		{"between", []float64{1, 2, 3}, 2.5, 2.0 / 3},
		{"at last", []float64{1, 2, 3}, 3, 1},
		{"above all", []float64{1, 2, 3}, 99, 1},
		{"ties counted inclusively", []float64{1, 2, 2, 2, 3}, 2, 4.0 / 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := ECDFAtSorted(c.xs, c.x); got != c.want {
				t.Fatalf("ECDFAtSorted(%v, %g) = %g, want %g", c.xs, c.x, got, c.want)
			}
		})
	}
}

// cdfAt is the reference ECDFAtSorted is checked against: the empirical
// CDF of xs materialized point by point, then walked up to x.
func cdfAt(xs []float64, x float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	p := 0.0
	for i, v := range s {
		if v > x {
			break
		}
		p = float64(i+1) / float64(len(s))
	}
	return p
}

// ECDFAtSorted must agree with the materialized CDF everywhere.
func TestECDFMatchesCDFAt(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = math.Round(rng.Float64()*10) / 2 // plenty of ties
	}
	sort.Float64s(xs)
	for x := -1.0; x <= 6; x += 0.25 {
		if got, want := ECDFAtSorted(xs, x), cdfAt(xs, x); got != want {
			t.Fatalf("x=%g: ECDFAtSorted %g != cdfAt %g", x, got, want)
		}
	}
}
