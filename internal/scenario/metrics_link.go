// Link metrics: what one link of a packet-level run carried, read off
// probes attached to it (the §5.4 dynamics traces, Fig. 6 and Fig. 7).

package scenario

import (
	"cmp"
	"math"

	"pdq/internal/netsim"
	"pdq/internal/params"
	"pdq/internal/sim"
	"pdq/internal/stats"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

// linkMetrics are the link metrics of the metric table (MetricEntry.Link).
var linkMetrics = []MetricEntry{
	{
		Name:   "link-util",
		Doc:    "mean utilization [%] of the link into host `host` over [from_ms, to_ms), sampled every stride_us; to_ms=0 ends the window at the latest finish over completed flows under hi_kb (all when hi_kb=0)",
		Params: map[string]float64{"host": -1, "stride_us": 500, "from_ms": 0, "to_ms": 0, "hi_kb": 0},
		Check: func(p map[string]float64) error {
			return cmp.Or(params.Int("host", p["host"], math.MinInt32, math.MaxInt32),
				params.In("stride_us", p["stride_us"], 0.001, math.Inf(1)),
				params.In("from_ms", p["from_ms"], 0, maxMs), params.In("to_ms", p["to_ms"], 0, maxMs))
		},
		Fn: noLink,
		Link: func(s *sim.Sim, l *netsim.Link, p map[string]float64) func([]workload.Result) float64 {
			stride := sim.Time(p["stride_us"] * float64(sim.Microsecond))
			pr := trace.NewProber(s, stride)
			util := pr.Add("util", utilSampler(l, stride))
			pr.Start()
			return func(rs []workload.Result) float64 {
				to, _ := msTime("to_ms", p["to_ms"]) // Check held it to [0, maxMs]
				if to == 0 {
					to = lastFinish(rs, p)
				}
				from, _ := msTime("from_ms", p["from_ms"])
				return stats.MeanOver(util, from, to)
			}
		},
	},
	{
		Name:   "link-queue-max",
		Doc:    "largest queue [MTU-sized packets] of the link into host `host`, sampled every stride_us",
		Params: map[string]float64{"host": -1, "stride_us": 500},
		Check: func(p map[string]float64) error {
			return cmp.Or(params.Int("host", p["host"], math.MinInt32, math.MaxInt32),
				params.In("stride_us", p["stride_us"], 0.001, math.Inf(1)))
		},
		Fn: noLink,
		Link: func(s *sim.Sim, l *netsim.Link, p map[string]float64) func([]workload.Result) float64 {
			pr := trace.NewProber(s, sim.Time(p["stride_us"]*float64(sim.Microsecond)))
			queue := pr.Add("qdepth", queueSampler(l))
			pr.Start()
			return func([]workload.Result) float64 { return stats.Max(queue.Vals) / netsim.MTU }
		},
	},
	{
		Name:   "link-drops",
		Doc:    "packets the link into host `host` dropped",
		Params: map[string]float64{"host": -1},
		Check:  func(p map[string]float64) error { return params.Int("host", p["host"], math.MinInt32, math.MaxInt32) },
		Fn:     noLink,
		Link: func(_ *sim.Sim, l *netsim.Link, _ map[string]float64) func([]workload.Result) float64 {
			return func([]workload.Result) float64 { return float64(l.Drops()) }
		},
	},
}

// noLink is a link metric's Fn: a run no link was probed on has no value.
func noLink([]workload.Result, []workload.Flow, map[string]float64) float64 { return math.NaN() }
