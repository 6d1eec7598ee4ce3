package scenario

import (
	"slices"

	"pdq/internal/fluid"
	"pdq/internal/netsim"
	"pdq/internal/params"
	"pdq/internal/stats"
	"pdq/internal/workload"
)

// metrics is the table of metrics: the ones below, then the
// distribution and fault-experiment ones.
var metrics = params.NewRegistry("metric", MetricEntry.decl, slices.Concat([]MetricEntry{
	{
		Name: "app-throughput",
		Doc:  "percentage of deadline flows that met their deadline (§5.1)",
		Fn: func(rs []workload.Result, _ []workload.Flow, _ map[string]float64) float64 {
			return stats.AppThroughput(rs)
		},
		// Met flows stay met and lost flows stay lost (workload.Tally), so
		// the final count of met flows lies in [Met, Total-Lost], and
		// DeadlinePct keeps that order.
		Interval: func(t workload.Tally, _ map[string]float64) (lo, hi float64) {
			return stats.DeadlinePct(t.Met, t.Total), stats.DeadlinePct(t.Total-t.Lost, t.Total)
		},
	},
	{
		Name:   "mean-fct",
		Doc:    "mean flow completion time; ms=1 reports milliseconds, long_only=1 keeps flows at or above the 40 KB cutoff",
		Params: map[string]float64{"ms": 0, "long_only": 0},
		Fn: func(rs []workload.Result, _ []workload.Flow, p map[string]float64) float64 {
			var keep func(workload.Result) bool
			if p["long_only"] != 0 {
				keep = func(r workload.Result) bool { return r.Size >= workload.ShortFlowCutoff }
			}
			v := stats.MeanFCT(rs, keep)
			if p["ms"] != 0 {
				v *= 1000
			}
			return v
		},
	},
	{
		Name:   "mean-fct-vs-srpt",
		Doc:    "mean FCT normalized to the fluid SRPT optimum on the bottleneck",
		Params: map[string]float64{"bottleneck_gbps": float64(netsim.DefaultRate) / 1e9},
		Fn: func(rs []workload.Result, flows []workload.Flow, p map[string]float64) float64 {
			bps := int64(p["bottleneck_gbps"] * 1e9)
			opt := fluid.MeanFCT(flows, fluid.SRPT(flows, bps))
			return stats.MeanFCT(rs, nil) / opt
		},
	},
}, distMetrics, faultMetrics))
