package main

import (
	"math"
	"sort"
)

// summary describes one metric's samples. With fewer than eleven samples
// no percentile has ten samples beyond it, so the tail is given as
// min/quartiles/max instead of a percentile (TailNote says so).
type summary struct {
	Value float64 `json:"value"` // the reported statistic, named by Stat
	Unit  string  `json:"unit"`
	// Stat is "median", "q1" (max-RSS; "min" below four samples) or
	// "value" (a single measurement).
	Stat   string  `json:"stat"`
	N      int     `json:"n"`
	Min    float64 `json:"min"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
	Max    float64 `json:"max"`
	// Tail is the highest percentile (TailP) with ten samples beyond it.
	TailP    float64   `json:"tail_p,omitempty"`
	Tail     float64   `json:"tail,omitempty"`
	TailNote string    `json:"tail_note,omitempty"`
	Samples  []float64 `json:"samples,omitempty"`
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// exclusive method), which is what the acceptance spread is computed
// with. Fewer than two samples give the sample itself three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the acceptance statistic: the distance between the first and
// third quartile as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// summarize reports the median of xs.
func summarize(unit string, xs []float64) summary {
	s := summary{Unit: unit, Stat: "median", N: len(xs), Samples: xs}
	if len(xs) == 0 {
		return s
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s.Q1, s.Median, s.Q3 = quartiles(xs)
	s.Value = s.Median
	s.Min, s.Max = sorted[0], sorted[len(xs)-1]
	if len(xs) < 11 {
		s.TailNote = "n < 11: no percentile has ten samples beyond it; min/quartiles/max stored instead"
		return s
	}
	s.TailP = 100 * float64(len(xs)-10) / float64(len(xs))
	s.Tail = sorted[len(xs)-11]
	return s
}

// lowerQuartile is summarize for max-RSS. A collector that falls behind
// on a busy host only ever adds resident memory, so the lower quartile
// is what the program needs when the collector keeps up: over a ten-run
// set of the P-worker sweep (R = 3) its spread was 4 % where the
// median's was 20 %. (Tried for the timings too: no better than the
// median there, so they keep the median.)
func lowerQuartile(unit string, xs []float64) summary {
	s := summarize(unit, xs)
	switch {
	case len(xs) >= 4:
		s.Value, s.Stat = s.Q1, "q1"
	case len(xs) >= 2: // the quartile formula extrapolates below the minimum here
		s.Value, s.Stat = s.Min, "min"
	}
	return s
}

// scalar is a single measured value.
func scalar(unit string, v float64) summary {
	return summary{Value: v, Unit: unit, Stat: "value", N: 1, Min: v, Q1: v, Median: v, Q3: v, Max: v}
}
