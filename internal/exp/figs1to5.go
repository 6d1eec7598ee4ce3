package exp

import "pdq/internal/scenario"

// Fig1Spec reproduces the motivating example (Fig. 1) via the fluid
// custom driver: three flows of sizes 1, 2, 3 units with deadlines 1, 4,
// 6 on one unit-rate bottleneck, under fair sharing, SJF/EDF, and D3
// with arrival order fB, fA, fC.
func Fig1Spec() *scenario.Spec {
	return &scenario.Spec{
		Name:   "fig1",
		Desc:   "motivating example: completion times (s), mean FCT, deadlines met",
		Driver: "fluid-example",
	}
}

// aggWorkload is the §5.2 deadline-constrained query-aggregation
// workload on the default tree.
func aggWorkload(meanKB float64, deadlineMs float64) scenario.WorkloadSpec {
	return scenario.WorkloadSpec{
		Pattern:        aggregation(),
		Sizes:          uniformMeanKB(meanKB),
		MeanDeadlineMs: deadlineMs,
	}
}

// Fig3aSpec: application throughput (%) vs number of deadline-constrained
// query-aggregation flows, for Optimal, the four PDQ variants, D3, RCP
// and TCP.
func Fig3aSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:      "fig3a",
		Desc:      "app throughput [%] vs number of flows (deadline, query aggregation)",
		Digits:    1,
		Topology:  defaultTree(),
		Workload:  aggWorkload(100, meanDeadlineMsDflt),
		Protocols: append([]scenario.ProtoSpec{{Label: "Optimal", Analytic: "optimal-app-throughput"}}, protoRows(ProtoOrder...)...),
		Sweep: &scenario.SweepSpec{
			Axis:        "flows",
			Values:      []float64{2, 5, 10, 15, 20, 25},
			QuickValues: []float64{3, 9, 15},
		},
		Metric:    scenario.MetricSpec{Name: "app-throughput"},
		HorizonMs: 500,
	}
}

// Fig3bSpec: application throughput vs mean flow size, 3 concurrent
// flows, averaged over several generator seeds per cell.
func Fig3bSpec() *scenario.Spec {
	w := aggWorkload(100, meanDeadlineMsDflt)
	w.Count = 3
	w.SeedsPerCell = 5
	w.QuickSeedsPerCell = 2
	return &scenario.Spec{
		Name:      "fig3b",
		Desc:      "app throughput [%] vs avg flow size [KB] (3 deadline flows)",
		Digits:    1,
		Topology:  defaultTree(),
		Workload:  w,
		Protocols: append([]scenario.ProtoSpec{{Label: "Optimal", Analytic: "optimal-app-throughput"}}, protoRows(ProtoOrder...)...),
		Sweep: &scenario.SweepSpec{
			Axis:        "mean-size-kb",
			Values:      []float64{100, 150, 200, 250, 300, 350},
			QuickValues: []float64{100, 250},
		},
		Metric:    scenario.MetricSpec{Name: "app-throughput"},
		HorizonMs: 500,
	}
}

// Fig3cSpec: the number of concurrent flows each protocol sustains at 99%
// application throughput, as the mean flow deadline varies.
func Fig3cSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:      "fig3c",
		Desc:      "number of flows at 99% app throughput vs mean deadline [ms]",
		Topology:  defaultTree(),
		Workload:  aggWorkload(100, 0), // deadline comes from the sweep axis
		Protocols: append([]scenario.ProtoSpec{{Label: "Optimal", Analytic: "optimal-app-throughput"}}, protoRows(ProtoOrder...)...),
		Sweep: &scenario.SweepSpec{
			Axis:        "mean-deadline-ms",
			Values:      []float64{20, 30, 40, 50, 60},
			QuickValues: []float64{20, 40},
		},
		Metric:    scenario.MetricSpec{Name: "app-throughput"},
		Eval:      scenario.EvalSpec{Mode: "max-flows", Hi: 64, QuickHi: 40, Threshold: 99},
		HorizonMs: 500,
	}
}

// Fig3dSpec: mean FCT (normalized to optimal) vs number of flows, no
// deadlines.
func Fig3dSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:      "fig3d",
		Desc:      "mean FCT normalized to optimal vs number of flows (no deadlines)",
		Topology:  defaultTree(),
		Workload:  aggWorkload(100, 0),
		Protocols: protoRows(fctProtos...),
		Sweep: &scenario.SweepSpec{
			Axis:        "flows",
			Values:      []float64{1, 2, 5, 10, 15, 20, 25},
			QuickValues: []float64{2, 8},
		},
		Metric:    scenario.MetricSpec{Name: "mean-fct-vs-srpt"},
		HorizonMs: 2000,
	}
}

// Fig3eSpec: mean FCT (normalized to optimal) vs mean flow size, 3 flows.
func Fig3eSpec() *scenario.Spec {
	w := aggWorkload(100, 0)
	w.Count = 3
	return &scenario.Spec{
		Name:      "fig3e",
		Desc:      "mean FCT normalized to optimal vs avg flow size [KB] (3 flows)",
		Topology:  defaultTree(),
		Workload:  w,
		Protocols: protoRows(fctProtos...),
		Sweep: &scenario.SweepSpec{
			Axis:        "mean-size-kb",
			Values:      []float64{100, 150, 200, 250, 300, 350},
			QuickValues: []float64{100, 300},
		},
		Metric:    scenario.MetricSpec{Name: "mean-fct-vs-srpt"},
		HorizonMs: 2000,
	}
}

// patternCases is the §5.3 sending-pattern axis (columns labeled by each
// pattern's own name).
func patternCases() []scenario.SweepCase {
	pat := func(name string, params map[string]float64) scenario.SweepCase {
		return scenario.SweepCase{Pattern: &scenario.PatternSpec{Name: name, Params: params}}
	}
	return []scenario.SweepCase{
		pat("aggregation", nil),
		pat("stride", map[string]float64{"i": 1}),
		pat("stride", map[string]float64{"i": treeHosts / 2}),
		pat("staggered", map[string]float64{"p": 0.7}),
		pat("staggered", map[string]float64{"p": 0.3}),
		pat("permutation", nil),
	}
}

// Fig4aSpec: number of flows at 99% application throughput per sending
// pattern, normalized to PDQ(Full).
func Fig4aSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:      "fig4a",
		Desc:      "flows at 99% app throughput per pattern (normalized to PDQ(Full))",
		Topology:  defaultTree(),
		Workload:  aggWorkload(100, meanDeadlineMsDflt),
		Protocols: protoRows(ProtoOrder...),
		Sweep:     &scenario.SweepSpec{Cases: patternCases()},
		Metric:    scenario.MetricSpec{Name: "app-throughput"},
		Eval:      scenario.EvalSpec{Mode: "max-flows", Hi: 48, QuickHi: 16, Threshold: 99},
		HorizonMs: 500,
		Normalize: "base-row",
	}
}

// Fig4bSpec: mean FCT per sending pattern, normalized to PDQ(Full), no
// deadlines.
func Fig4bSpec() *scenario.Spec {
	w := aggWorkload(100, 0)
	w.Count = 48
	w.QuickCount = 36
	return &scenario.Spec{
		Name:      "fig4b",
		Desc:      "mean FCT per pattern (normalized to PDQ(Full), no deadlines)",
		Topology:  defaultTree(),
		Workload:  w,
		Protocols: protoRows(fctProtos...),
		Sweep:     &scenario.SweepSpec{Cases: patternCases()},
		Metric:    scenario.MetricSpec{Name: "mean-fct"},
		HorizonMs: 2000,
		Normalize: "base-row",
	}
}

// vl2Workload is the §5.3 commercial-datacenter workload: VL2-like sizes,
// random permutation, Poisson arrivals; flows under 40 KB are
// deadline-constrained.
func vl2Workload(rate, quickRate, windowMs, quickWindowMs float64) scenario.WorkloadSpec {
	return scenario.WorkloadSpec{
		Pattern:           permutation(),
		Sizes:             scenario.DistSpec{Name: "vl2"},
		MeanDeadlineMs:    meanDeadlineMsDflt,
		DeadlineShortOnly: true,
		Arrival: &scenario.ArrivalSpec{
			Rate: rate, QuickRate: quickRate,
			WindowMs: windowMs, QuickWindowMs: quickWindowMs,
		},
	}
}

// Fig5aSpec: sustainable short-flow arrival rate at 99% application
// throughput vs mean flow deadline, under the VL2-like workload.
func Fig5aSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:      "fig5a",
		Desc:      "short-flow arrival rate [flows/s] at 99% app throughput vs deadline [ms]",
		Topology:  defaultTree(),
		Workload:  vl2Workload(0, 0, 100, 40), // rate comes from the search
		Protocols: protoRows(ProtoOrder...),
		Sweep: &scenario.SweepSpec{
			Axis:        "mean-deadline-ms",
			Values:      []float64{15, 25, 35, 45},
			QuickValues: []float64{20, 40},
		},
		Metric:    scenario.MetricSpec{Name: "app-throughput"},
		Eval:      scenario.EvalSpec{Mode: "max-rate", Steps: 20, QuickSteps: 8, RateStep: 1000, Threshold: 99},
		HorizonMs: 600, QuickHorizonMs: 540, // arrival window + 500 ms drain
	}
}

// Fig5bSpec: mean FCT of long flows (≥40 KB) under the VL2-like workload,
// normalized to PDQ(Full).
func Fig5bSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:      "fig5b",
		Desc:      "long-flow FCT under VL2-like workload (normalized to PDQ(Full))",
		Topology:  defaultTree(),
		Workload:  vl2Workload(3000, 2000, 200, 60),
		Protocols: protoRows(fctProtos...),
		ColLabel:  "norm",
		Metric:    scenario.MetricSpec{Name: "mean-fct", Params: map[string]float64{"long_only": 1}},
		HorizonMs: 2200, QuickHorizonMs: 2060, // arrival window + 2 s drain
		Normalize: "base-row",
	}
}

// Fig5cSpec: mean FCT under the EDU1-like university workload, normalized
// to PDQ(Full).
func Fig5cSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:     "fig5c",
		Desc:     "mean FCT under EDU1-like workload (normalized to PDQ(Full))",
		Topology: defaultTree(),
		Workload: scenario.WorkloadSpec{
			Pattern: permutation(),
			Sizes:   scenario.DistSpec{Name: "edu1"},
			Arrival: &scenario.ArrivalSpec{
				Rate: 4000, QuickRate: 3000,
				WindowMs: 200, QuickWindowMs: 60,
			},
		},
		Protocols: protoRows(fctProtos...),
		ColLabel:  "norm",
		Metric:    scenario.MetricSpec{Name: "mean-fct"},
		HorizonMs: 2200, QuickHorizonMs: 2060,
		Normalize: "base-row",
	}
}
