// Package stats provides the measurement and analysis helpers used by the
// experiment harness: summary statistics, percentiles and empirical CDF
// points of sorted samples, means over probe series, application
// throughput, and the binary search the paper uses to find the maximum
// load sustaining 99% application throughput (§5.2.1).
package stats

import (
	"math"
	"sort"

	"pdq/internal/sim"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// PercentileSorted returns the p-th percentile of the ascending-sorted xs
// without copying or re-sorting it.
func PercentileSorted(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	pos := float64(p / 100 * float64(len(xs)-1))
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return float64(xs[lo]*(1-frac)) + float64(xs[lo+1]*frac)
}

// WeightedPercentileSorted returns the p-th weighted percentile
// (0 ≤ p ≤ 100) of the ascending-sorted xs with non-negative weights ws
// (len(ws) == len(xs)), following PercentileSorted's conventions: no
// copying, linear interpolation, and endpoint clamping. Sample i sits at
// its cumulative-weight midpoint Σ_{j≤i} w_j − w_i/2, the standard
// weighted-quantile definition; with equal weights it agrees with
// PercentileSorted to within half an inter-sample position (the two
// interpolation grids are offset by (p/100 − ½) of one position, so the
// values differ by at most half the largest adjacent gap). Zero total
// weight returns 0.
func WeightedPercentileSorted(xs, ws []float64, p float64) float64 {
	if len(xs) == 0 || len(xs) != len(ws) {
		return 0
	}
	total := 0.0
	for _, w := range ws {
		total += w
	}
	if total <= 0 {
		return 0
	}
	if p <= 0 {
		return xs[0]
	}
	if p >= 100 {
		return xs[len(xs)-1]
	}
	target := float64(p / 100 * total)
	cum := 0.0
	prevPos, prevX := 0.0, xs[0]
	for i, x := range xs {
		pos := cum + float64(ws[i]/2) // this sample's cumulative-weight midpoint
		cum += ws[i]
		if pos >= target {
			if i == 0 || pos == prevPos {
				return x
			}
			frac := (target - prevPos) / (pos - prevPos)
			return prevX + float64(frac*(x-prevX))
		}
		prevPos, prevX = pos, x
	}
	return xs[len(xs)-1]
}

// ECDFAtSorted evaluates the empirical CDF of the ascending-sorted xs at
// x: the fraction of samples ≤ x, in [0, 1], found by binary search.
func ECDFAtSorted(xs []float64, x float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	// First index with xs[i] > x; everything before it is ≤ x.
	n := sort.Search(len(xs), func(i int) bool { return xs[i] > x })
	return float64(n) / float64(len(xs))
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	if math.IsInf(m, -1) {
		return 0
	}
	return m
}

// AppThroughput returns the percentage of deadline-constrained flows that
// met their deadline (the paper's application-throughput metric).
// Unconstrained flows are ignored. Returns 100 when there are no
// deadline-constrained flows.
func AppThroughput(rs []workload.Result) float64 {
	total, met := 0, 0
	for _, r := range rs {
		if !r.HasDeadline() {
			continue
		}
		total++
		if r.MetDeadline() {
			met++
		}
	}
	return DeadlinePct(met, total)
}

// DeadlinePct is AppThroughput's value for met of total deadline flows.
// It never decreases as met grows: int→float64 is exact at any flow
// count a run can hold, and a correctly rounded quotient and product
// keep the order of their operands — which is what lets a bound on the
// count of met flows stand as a bound on the metric (scenario's
// app-throughput Interval).
func DeadlinePct(met, total int) float64 {
	if total == 0 {
		return 100
	}
	return 100 * float64(met) / float64(total)
}

// MeanFCT returns the mean flow completion time in seconds over completed
// flows matching keep (nil = all completed flows).
func MeanFCT(rs []workload.Result, keep func(workload.Result) bool) float64 {
	var xs []float64
	for _, r := range rs {
		if !r.Done() {
			continue
		}
		if keep != nil && !keep(r) {
			continue
		}
		xs = append(xs, r.FCT().Seconds())
	}
	return Mean(xs)
}

// MaxN returns the largest n in [lo, hi] for which ok(n) is true, assuming
// ok is monotone non-increasing in n (true for small n, false beyond a
// threshold). Returns lo-1 if even ok(lo) is false. This is the paper's
// binary-search procedure for the number of flows sustaining 99%
// application throughput.
func MaxN(lo, hi int, ok func(int) bool) int {
	if lo > hi {
		panic("stats: MaxN empty range")
	}
	if !ok(lo) {
		return lo - 1
	}
	good, bad := lo, hi+1
	for bad-good > 1 {
		mid := good + (bad-good)/2
		if ok(mid) {
			good = mid
		} else {
			bad = mid
		}
	}
	return good
}

// MeanOver returns the mean of s's samples taken at from ≤ t < to.
func MeanOver(s *trace.Series, from, to sim.Time) float64 {
	var xs []float64
	for i, v := range s.Vals {
		if t := s.At(i); t >= from && t < to {
			xs = append(xs, v)
		}
	}
	return Mean(xs)
}
