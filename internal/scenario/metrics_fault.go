// Fault-experiment metrics: how long flows take to recover after an
// injected failure clears, and how much goodput survives during one.

package scenario

import (
	"cmp"
	"fmt"

	"pdq/internal/params"
	"pdq/internal/sim"
	"pdq/internal/workload"
)

// faultMetrics are the fault-experiment metrics of the metric table.
var faultMetrics = []MetricEntry{
	{
		Name: "recovery-ms",
		Doc:  "ms from after_ms to the first flow completion at or past it — recovery latency once a fault clears; -1 if nothing completes after",
		Params: map[string]float64{
			"after_ms": 0,
		},
		Check: func(p map[string]float64) error { return params.In("after_ms", p["after_ms"], 0, maxMs) },
		Fn: func(rs []workload.Result, _ []workload.Flow, p map[string]float64) float64 {
			after, _ := msTime("after_ms", p["after_ms"]) // Check held it to [0, maxMs]
			best := sim.Time(-1)
			for _, r := range rs {
				if r.Finish < after {
					continue
				}
				if best < 0 || r.Finish < best {
					best = r.Finish
				}
			}
			if best < 0 {
				return -1
			}
			return (best - after).Millis()
		},
	},
	{
		Name: "goodput-gbps",
		Doc:  "aggregate goodput over [from_ms, to_ms): bytes of flows finishing in the window over its length; to_ms=0 means the whole run",
		Params: map[string]float64{
			"from_ms": 0,
			"to_ms":   0,
		},
		Check: func(p map[string]float64) error {
			if from, to := p["from_ms"], p["to_ms"]; to > 0 && to <= from {
				return fmt.Errorf("parameters \"from_ms\" = %v, \"to_ms\" = %v: want to_ms = 0 or to_ms > from_ms", from, to)
			}
			return cmp.Or(params.In("from_ms", p["from_ms"], 0, maxMs), params.In("to_ms", p["to_ms"], 0, maxMs))
		},
		Fn: func(rs []workload.Result, _ []workload.Flow, p map[string]float64) float64 {
			from, _ := msTime("from_ms", p["from_ms"]) // Check held it to [0, maxMs]
			to, _ := msTime("to_ms", p["to_ms"])
			if to <= from {
				// Whole run: window ends at the last completion.
				for _, r := range rs {
					if r.Finish > to {
						to = r.Finish
					}
				}
				if to <= from {
					return 0
				}
			}
			var bytes int64
			for _, r := range rs {
				if r.Finish >= from && r.Finish < to {
					bytes += r.Size
				}
			}
			secs := float64(to-from) / float64(sim.Second)
			return float64(bytes*8) / secs / 1e9
		},
	},
}
