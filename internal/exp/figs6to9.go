package exp

import "pdq/internal/scenario"

// Fig6Spec reproduces the convergence-dynamics scenario (§5.4 scenario
// 1) via the trace driver: five ~1 MB flows start together on one
// bottleneck; PDQ should serve them sequentially with seamless
// switching, ~100% bottleneck utilization and a small queue, completing
// all five in ~42 ms.
func Fig6Spec() *scenario.Spec {
	return &scenario.Spec{
		Name:   "fig6",
		Desc:   "convergence dynamics: 5×1MB flows, one bottleneck (PDQ Full)",
		Driver: "convergence-trace",
		Params: map[string]float64{"flows": 5, "size_mb": 1},
	}
}

// Fig7Spec reproduces the burst-robustness scenario (§5.4 scenario 2): a
// long-lived flow is preempted at t=10 ms by 50 short (20 KB) flows; PDQ
// should absorb the burst at high utilization with a small queue.
func Fig7Spec() *scenario.Spec {
	return &scenario.Spec{
		Name:        "fig7",
		Desc:        "robustness to burst: 50 short flows preempt a long-lived flow (PDQ Full)",
		Driver:      "burst-trace",
		Params:      map[string]float64{"shorts": 50},
		QuickParams: map[string]float64{"shorts": 25},
	}
}

// lossyTree is the default tree with the given loss rate injected on the
// aggregation receiver's access link, both directions (§5.6); the sweep
// axis overrides the rate per column.
func lossyTree() scenario.TopoSpec {
	t := defaultTree()
	t.Loss = &scenario.LossSpec{Host: -1}
	return t
}

// Fig9aSpec: number of deadline flows at 99% application throughput vs
// packet loss rate, PDQ vs TCP.
func Fig9aSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:      "fig9a",
		Desc:      "flows at 99% app throughput vs loss rate (deadline)",
		Topology:  lossyTree(),
		Workload:  aggWorkload(100, meanDeadlineMsDflt),
		Protocols: protoRows("PDQ(Full)", "TCP"),
		Sweep: &scenario.SweepSpec{
			Axis:        "loss-rate",
			Values:      []float64{0, 0.01, 0.02, 0.03},
			Labels:      []string{"0%", "1%", "2%", "3%"},
			QuickValues: []float64{0, 0.02},
			QuickLabels: []string{"0%", "2%"},
		},
		Metric:    scenario.MetricSpec{Name: "app-throughput"},
		Eval:      scenario.EvalSpec{Mode: "max-flows", Hi: 24, QuickHi: 12, Threshold: 99},
		HorizonMs: 500,
	}
}

// Fig9bSpec: mean FCT vs loss rate, normalized to PDQ without loss.
func Fig9bSpec() *scenario.Spec {
	w := aggWorkload(100, 0)
	w.Count = 10
	w.QuickCount = 6
	return &scenario.Spec{
		Name:      "fig9b",
		Desc:      "mean FCT vs loss rate (normalized to PDQ w/o loss)",
		Topology:  lossyTree(),
		Workload:  w,
		Protocols: protoRows("PDQ(Full)", "TCP"),
		Sweep: &scenario.SweepSpec{
			Axis:        "loss-rate",
			Values:      []float64{0, 0.01, 0.02, 0.03},
			Labels:      []string{"0%", "1%", "2%", "3%"},
			QuickValues: []float64{0, 0.03},
			QuickLabels: []string{"0%", "3%"},
		},
		Metric:    scenario.MetricSpec{Name: "mean-fct"},
		HorizonMs: 10000,
		Normalize: "first-cell",
	}
}
