package scenario

import (
	"math"
	"slices"

	"pdq/internal/fluid"
	"pdq/internal/netsim"
	"pdq/internal/params"
	"pdq/internal/sim"
	"pdq/internal/stats"
	"pdq/internal/workload"
)

// metrics is the table of metrics: the ones below, then the
// distribution, fault-experiment and link ones.
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
	{
		Name:   "finish",
		Doc:    "finish time [s] of the flow with ID `id`, NaN if there is none; id=0 takes the latest finish over completed flows under hi_kb (all when hi_kb=0), 0 when none; ms=1 reports milliseconds",
		Params: map[string]float64{"id": 0, "hi_kb": 0, "ms": 0},
		Check:  func(p map[string]float64) error { return params.Int("id", p["id"], 0, 1<<53) },
		Fn: func(rs []workload.Result, _ []workload.Flow, p map[string]float64) float64 {
			var t sim.Time
			if id := uint64(p["id"]); id == 0 {
				t = lastFinish(rs, p)
			} else if i := slices.IndexFunc(rs, func(r workload.Result) bool { return r.ID == id }); i >= 0 {
				t = rs[i].Finish
			} else {
				return math.NaN()
			}
			if p["ms"] != 0 {
				return t.Millis()
			}
			return t.Seconds()
		},
	},
	{
		Name:   "flows-done",
		Doc:    "number of completed flows under hi_kb (all when hi_kb=0); met=1 counts only deadline flows that met their deadline",
		Params: map[string]float64{"hi_kb": 0, "met": 0},
		Check:  func(p map[string]float64) error { return params.Int("met", p["met"], 0, 1) },
		Fn: func(rs []workload.Result, _ []workload.Flow, p map[string]float64) float64 {
			n := 0
			for _, r := range rs {
				if r.Done() && under(r, p) && (p["met"] == 0 || r.MetDeadline()) {
					n++
				}
			}
			return float64(n)
		},
	},
}, distMetrics, faultMetrics, linkMetrics))

// under reports whether r's flow is under p["hi_kb"] KB, or hi_kb is 0.
func under(r workload.Result, p map[string]float64) bool {
	return p["hi_kb"] == 0 || r.Size < int64(p["hi_kb"]*1024)
}

// lastFinish is the latest finish over completed flows under p["hi_kb"].
func lastFinish(rs []workload.Result, p map[string]float64) sim.Time {
	var last sim.Time
	for _, r := range rs {
		if r.Done() && under(r, p) && r.Finish > last {
			last = r.Finish
		}
	}
	return last
}
