// Distribution metrics over the per-flow record stream: quantiles, CDF
// points, slowdowns, size-binned deadline misses and the per-flow FCT
// ratio against a reference run. Together with the
// "metric:<param>" sweep axis these make CDF-style figures (FCT tails,
// miss breakdowns by flow class) declarative — a spec names them, no new
// Go per experiment.

package scenario

import (
	"sort"

	"pdq/internal/netsim"
	"pdq/internal/params"
	"pdq/internal/stats"
	"pdq/internal/workload"
)

// fctSamples returns the completed flows' FCTs in seconds with their
// sizes as weights, sorted ascending by FCT (the sorted fast path the
// stats helpers expect).
func fctSamples(rs []workload.Result) (fcts, sizes []float64) {
	type pair struct{ f, s float64 }
	var ps []pair
	for _, r := range rs {
		if r.Done() {
			ps = append(ps, pair{r.FCT().Seconds(), float64(r.Size)})
		}
	}
	sort.Slice(ps, func(i, j int) bool { return ps[i].f < ps[j].f })
	fcts = make([]float64, len(ps))
	sizes = make([]float64, len(ps))
	for i, p := range ps {
		fcts[i], sizes[i] = p.f, p.s
	}
	return fcts, sizes
}

// fctRatio is the fct-ratio pair metric: a statistic of ref FCT ÷ row FCT
// over the flows both runs completed (Fig. 8e's RCP/PDQ ratio).
func fctRatio(rs, ref []workload.Result, p map[string]float64) float64 {
	var ratios []float64
	for i := range rs {
		if rs[i].Done() && ref[i].Done() {
			ratios = append(ratios, ref[i].FCT().Seconds()/rs[i].FCT().Seconds())
		}
	}
	sort.Float64s(ratios)
	stat, at, n, worst := p["stat"], p["at"], 0, 0.0
	for _, r := range ratios {
		if stat == 1 && r >= at || stat == 2 && r < at {
			n++
		}
		worst = max(worst, 1/r)
	}
	switch {
	case stat == 0:
		return float64(len(ratios))
	case stat == 3:
		return stats.PercentileSorted(ratios, 50)
	case stat == 4:
		return worst
	case len(ratios) == 0:
		return 0 // no paired completions: 0%, not NaN
	}
	return 100 * float64(n) / float64(len(ratios))
}

// distMetrics are the distribution metrics of the metric table.
var distMetrics = []MetricEntry{
	{
		Name:   "fct-ratio",
		Doc:    "per-flow FCT ratio ref ÷ row over flows both runs completed (a pair metric: the row names a ref runner); stat 0=pairs 1=% with ratio >= at 2=% with ratio < at 3=median ratio 4=worst inverse ratio",
		Params: map[string]float64{"stat": 0, "at": 1},
		Check:  func(p map[string]float64) error { return params.Int("stat", p["stat"], 0, 4) },
		Fn: func(rs []workload.Result, _ []workload.Flow, p map[string]float64) float64 {
			return fctRatio(rs, rs, p)
		},
		Pair: fctRatio,
	},
	{
		Name:   "fct-quantile",
		Doc:    "q-th FCT percentile over completed flows (q=100: the worst FCT); ms=1 reports milliseconds, weight_by_size=1 weights by bytes (pairs with the metric:q sweep axis for inverse-CDF curves)",
		Params: map[string]float64{"q": 50, "ms": 0, "weight_by_size": 0},
		Check:  func(p map[string]float64) error { return params.In("q", p["q"], 0, 100) },
		Fn: func(rs []workload.Result, _ []workload.Flow, p map[string]float64) float64 {
			fcts, sizes := fctSamples(rs)
			var v float64
			if p["weight_by_size"] != 0 {
				v = stats.WeightedPercentileSorted(fcts, sizes, p["q"])
			} else {
				v = stats.PercentileSorted(fcts, p["q"])
			}
			if p["ms"] != 0 {
				v *= 1000
			}
			return v
		},
	},
	{
		Name:   "fct-cdf",
		Doc:    "empirical P(FCT <= at_ms) over completed flows, in [0,1]; weight_by_size=1 reports the fraction of bytes (pairs with the metric:at_ms sweep axis for CDF curves)",
		Params: map[string]float64{"at_ms": 10, "weight_by_size": 0},
		Fn: func(rs []workload.Result, _ []workload.Flow, p map[string]float64) float64 {
			fcts, sizes := fctSamples(rs)
			x := p["at_ms"] / 1000
			if p["weight_by_size"] == 0 {
				return stats.ECDFAtSorted(fcts, x)
			}
			below, total := 0.0, 0.0
			for i, f := range fcts {
				total += sizes[i]
				if f <= x {
					below += sizes[i]
				}
			}
			if total == 0 {
				return 0
			}
			return below / total
		},
	},
	{
		Name:   "slowdown-mean",
		Doc:    "mean FCT slowdown over completed flows: FCT ÷ the flow's ideal transfer time size/bottleneck (1.0 = line rate)",
		Params: map[string]float64{"bottleneck_gbps": float64(netsim.DefaultRate) / 1e9},
		Fn: func(rs []workload.Result, _ []workload.Flow, p map[string]float64) float64 {
			bps := p["bottleneck_gbps"] * 1e9
			sum, n := 0.0, 0
			for _, r := range rs {
				if !r.Done() {
					continue
				}
				ideal := float64(r.Size) * 8 / bps
				sum += r.FCT().Seconds() / ideal
				n++
			}
			if n == 0 {
				return 0
			}
			return sum / float64(n)
		},
	},
	{
		Name: "miss-by-size-bin",
		Doc:  "percentage of deadline flows with lo_kb <= size < hi_kb that missed their deadline (hi_kb=0 means unbounded); 0 when the bin is empty",
		Params: map[string]float64{
			"lo_kb": 0,
			"hi_kb": 0,
		},
		Fn: func(rs []workload.Result, _ []workload.Flow, p map[string]float64) float64 {
			lo := int64(p["lo_kb"] * 1024)
			hi := int64(p["hi_kb"] * 1024)
			total, missed := 0, 0
			for _, r := range rs {
				if !r.HasDeadline() || r.Size < lo || (hi > 0 && r.Size >= hi) {
					continue
				}
				total++
				if !r.MetDeadline() {
					missed++
				}
			}
			if total == 0 {
				return 0
			}
			return 100 * float64(missed) / float64(total)
		},
	},
}
