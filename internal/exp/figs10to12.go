package exp

import "pdq/internal/scenario"

// fatTreeCases is the Fig. 8a/b fat-tree scale axis (labels are host
// counts).
func fatTreeCases() ([]scenario.SweepCase, []scenario.SweepCase) {
	mk := func(k float64, label string) scenario.SweepCase {
		return scenario.SweepCase{
			Label:    label,
			Topology: &scenario.TopoSpec{Name: "fat-tree", Params: map[string]float64{"k": k}},
		}
	}
	full := []scenario.SweepCase{mk(4, "16"), mk(6, "54"), mk(8, "128"), mk(12, "432")}
	return full, full[:1]
}

// scaleRows is the Fig. 8 row set: packet level only at the smallest
// scale (as in the paper, the packet simulator does not reach large
// sizes), flow level everywhere.
func fig8aRows() []scenario.ProtoSpec {
	return []scenario.ProtoSpec{
		{Label: "PDQ(Full); Pkt", Runner: "PDQ(Full)", Cols: 1},
		{Label: "D3; Pkt", Runner: "D3", Cols: 1},
		{Label: "RCP; Pkt", Runner: "RCP", Cols: 1},
		{Label: "PDQ(Full); Flow", Runner: "flow:PDQ", Params: map[string]float64{"et": 1}},
		{Label: "D3; Flow", Runner: "flow:D3"},
		{Label: "RCP; Flow", Runner: "flow:RCP"},
	}
}

// Fig8aSpec: deadline-constrained scale sweep on fat-trees — flows at 99%
// application throughput, packet-level vs flow-level, for PDQ, D3 and
// RCP under random permutation traffic.
func Fig8aSpec() *scenario.Spec {
	full, quick := fatTreeCases()
	return &scenario.Spec{
		Name: "fig8a",
		Desc: "flows at 99% app throughput vs network size (fat-tree, deadline)",
		Workload: scenario.WorkloadSpec{
			Pattern:        permutation(),
			Sizes:          uniformMeanKB(100),
			MeanDeadlineMs: meanDeadlineMsDflt,
		},
		Topology:  scenario.TopoSpec{Name: "fat-tree"},
		Protocols: fig8aRows(),
		Sweep:     &scenario.SweepSpec{Cases: full, QuickCases: quick},
		Metric:    scenario.MetricSpec{Name: "app-throughput"},
		Eval:      scenario.EvalSpec{Mode: "max-flows", HiPerHost: 6, Threshold: 99},
		HorizonMs: 500,
	}
}

// fig8FCTSpec builds the no-deadline FCT scale sweeps (Fig. 8b/c/d): 10
// sending flows per server, random permutation, packet level at the
// smallest scale only.
func fig8FCTSpec(name string, topoName string, full, quick []scenario.SweepCase) *scenario.Spec {
	return &scenario.Spec{
		Name:   name,
		Desc:   "mean FCT [ms] vs network size (no deadlines, 10 flows/server)",
		Digits: 1,
		Workload: scenario.WorkloadSpec{
			Pattern:           permutation(),
			Sizes:             uniformMeanKB(100),
			CountPerHost:      10,
			QuickCountPerHost: 4,
		},
		Topology: scenario.TopoSpec{Name: topoName},
		Protocols: []scenario.ProtoSpec{
			{Label: "PDQ(Full); Pkt", Runner: "PDQ(Full)", Cols: 1},
			{Label: "PDQ(Full); Flow", Runner: "flow:PDQ"},
			{Label: "RCP/D3; Pkt", Runner: "RCP", Cols: 1},
			{Label: "RCP/D3; Flow", Runner: "flow:RCP"},
		},
		Sweep:     &scenario.SweepSpec{Cases: full, QuickCases: quick},
		Metric:    scenario.MetricSpec{Name: "mean-fct", Params: map[string]float64{"ms": 1}},
		HorizonMs: 5000,
	}
}

// Fig8bSpec: fat-tree FCT scale sweep.
func Fig8bSpec() *scenario.Spec {
	full, quick := fatTreeCases()
	return fig8FCTSpec("fig8b", "fat-tree", full, quick)
}

// Fig8cSpec: BCube FCT scale sweep (dual-port servers: BCube(n,1)).
func Fig8cSpec() *scenario.Spec {
	mk := func(n float64, label string) scenario.SweepCase {
		return scenario.SweepCase{
			Label:    label,
			Topology: &scenario.TopoSpec{Name: "bcube", Params: map[string]float64{"n": n, "k": 1}},
		}
	}
	full := []scenario.SweepCase{mk(4, "16"), mk(8, "64"), mk(16, "256"), mk(32, "1024")}
	return fig8FCTSpec("fig8c", "bcube", full, full[:1])
}

// Fig8dSpec: Jellyfish FCT scale sweep (24-port switches, 2:1
// network:server port ratio ⇒ degree 16, 8 servers per switch).
func Fig8dSpec() *scenario.Spec {
	mk := func(nsw float64, label string) scenario.SweepCase {
		return scenario.SweepCase{
			Label: label,
			Topology: &scenario.TopoSpec{Name: "jellyfish",
				Params: map[string]float64{"switches": nsw, "degree": 16, "hosts_per_switch": 8}},
		}
	}
	full := []scenario.SweepCase{mk(18, "144"), mk(32, "256"), mk(64, "512"), mk(128, "1024")}
	quick := []scenario.SweepCase{{
		Label: "16",
		Topology: &scenario.TopoSpec{Name: "jellyfish",
			Params: map[string]float64{"switches": 8, "degree": 4, "hosts_per_switch": 2}},
	}}
	return fig8FCTSpec("fig8d", "jellyfish", full, quick)
}

// Fig8eSpec: the per-flow CDF of RCP FCT / PDQ FCT at ~128 servers
// (flow-level, random permutation): every row is a statistic of one
// flow:PDQ run's FCTs against flow:RCP's on the same flows. The paper
// reports ≈40% of flows at ratio ≥2, only 5–15% below 1, and a worst-case
// PDQ inflation of 2.57.
func Fig8eSpec() *scenario.Spec {
	row := func(label string, stat, at float64) scenario.ProtoSpec {
		r := metricRow(label, "flow:PDQ", "fct-ratio", map[string]float64{"stat": stat, "at": at})
		r.Ref = "flow:RCP"
		return r
	}
	quick := scenario.TopoSpec{Name: "fat-tree", Params: map[string]float64{"k": 4}}
	return &scenario.Spec{
		Name:     "fig8e",
		Desc:     "CDF of RCP FCT / PDQ FCT (flow-level, fat-tree)",
		Topology: scenario.TopoSpec{Name: "fat-tree", Params: map[string]float64{"k": 8}},
		Workload: scenario.WorkloadSpec{
			Pattern: permutation(), Sizes: uniformMeanKB(100),
			CountPerHost: 10, QuickCountPerHost: 5,
		},
		Protocols: []scenario.ProtoSpec{
			row("flows", 0, 1),
			row("% with ratio >= 2 (PDQ 2x faster)", 1, 2),
			row("% with ratio < 1 (PDQ slower)", 2, 1),
			row("% with ratio < 0.5", 2, 0.5),
			row("median ratio", 3, 1),
			row("worst PDQ inflation", 4, 1),
		},
		Sweep: &scenario.SweepSpec{
			Cases:      []scenario.SweepCase{{Label: "value"}},
			QuickCases: []scenario.SweepCase{{Label: "value", Topology: &quick}},
		},
		HorizonMs: 20000,
	}
}

// Fig10Spec: resilience to inaccurate flow information (flow-level,
// §5.6): mean FCT [ms] of PDQ with perfect information, random
// criticality, and size estimation, vs RCP, under uniform and
// Pareto(1.1) sizes. The pattern runs over the first 9 hosts (the
// receiver is host 8), matching the paper's 10-flow aggregation.
func Fig10Spec() *scenario.Spec {
	return &scenario.Spec{
		Name:     "fig10",
		Desc:     "mean FCT [ms] with inaccurate flow information (flow-level)",
		Topology: scenario.TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": 9}},
		Workload: scenario.WorkloadSpec{
			Pattern:           aggregation(),
			Sizes:             uniformMeanKB(100),
			Count:             10,
			Hosts:             9,
			SeedsPerCell:      10,
			QuickSeedsPerCell: 3,
		},
		Protocols: []scenario.ProtoSpec{
			{Label: "PDQ; Perfect", Runner: "flow:PDQ"},
			{Label: "PDQ; Random", Runner: "flow:PDQ", Params: map[string]float64{"crit": 1}},
			{Label: "PDQ; SizeEstimation", Runner: "flow:PDQ", Params: map[string]float64{"crit": 2}},
			{Label: "RCP", Runner: "flow:RCP"},
		},
		Sweep: &scenario.SweepSpec{Cases: []scenario.SweepCase{
			{Label: "Uniform", Sizes: &scenario.DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 100}}},
			{Label: "Pareto1.1", Sizes: &scenario.DistSpec{Name: "pareto", Params: map[string]float64{"alpha": 1.1, "mean_kb": 100}}},
		}},
		Metric:    scenario.MetricSpec{Name: "mean-fct", Params: map[string]float64{"ms": 1}},
		HorizonMs: 60000,
	}
}

// bcube23 is the §6 multipath evaluation topology: BCube(2,3), 16
// servers with 4 interfaces each (the registry's bcube defaults).
func bcube23() scenario.TopoSpec { return scenario.TopoSpec{Name: "bcube"} }

// Fig11aSpec: M-PDQ vs single-path PDQ mean FCT on BCube(2,3) as the
// load (fraction of sending hosts) varies, random permutation (§6).
func Fig11aSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:     "fig11a",
		Desc:     "FCT [ms] vs load (BCube(2,3), random permutation)",
		Digits:   2,
		Topology: bcube23(),
		Workload: scenario.WorkloadSpec{
			Pattern: permutation(),
			Sizes:   uniformMeanKB(100),
			Count:   16,
		},
		Protocols: []scenario.ProtoSpec{
			{Label: "PDQ", Runner: "PDQ(Full)", Params: map[string]float64{"subflows": 1}},
			{Label: "M-PDQ(3)", Runner: "PDQ(Full)", Params: map[string]float64{"subflows": 3}},
		},
		Sweep: &scenario.SweepSpec{
			Axis:        "load",
			Values:      []float64{0.25, 0.5, 0.75, 1.0},
			Labels:      []string{"25%", "50%", "75%", "100%"},
			QuickValues: []float64{0.5, 1.0},
			QuickLabels: []string{"50%", "100%"},
		},
		Metric:    scenario.MetricSpec{Name: "mean-fct", Params: map[string]float64{"ms": 1}},
		HorizonMs: 5000,
	}
}

// Fig11bSpec: M-PDQ mean FCT vs subflow count at full load (§6: ~4
// subflows reach most of the benefit).
func Fig11bSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:     "fig11b",
		Desc:     "FCT [ms] vs number of subflows (BCube(2,3), full load)",
		Digits:   2,
		Topology: bcube23(),
		Workload: scenario.WorkloadSpec{
			Pattern: permutation(),
			Sizes:   uniformMeanKB(100),
			Count:   16,
		},
		Protocols: []scenario.ProtoSpec{{Label: "M-PDQ", Runner: "PDQ(Full)"}},
		Sweep: &scenario.SweepSpec{
			Axis:        "runner:subflows",
			Values:      []float64{1, 2, 3, 4, 6, 8},
			QuickValues: []float64{1, 2, 4},
		},
		Metric:    scenario.MetricSpec{Name: "mean-fct", Params: map[string]float64{"ms": 1}},
		HorizonMs: 5000,
	}
}

// Fig11cSpec: deadline-constrained M-PDQ — flows at 99% application
// throughput vs subflow count.
func Fig11cSpec() *scenario.Spec {
	return &scenario.Spec{
		Name:     "fig11c",
		Desc:     "flows at 99% app throughput vs subflows (BCube(2,3), deadline)",
		Topology: bcube23(),
		Workload: scenario.WorkloadSpec{
			Pattern:        permutation(),
			Sizes:          uniformMeanKB(100),
			MeanDeadlineMs: meanDeadlineMsDflt,
		},
		Protocols: []scenario.ProtoSpec{{Label: "M-PDQ", Runner: "PDQ(Full)"}},
		Sweep: &scenario.SweepSpec{
			Axis:        "runner:subflows",
			Values:      []float64{1, 2, 4},
			QuickValues: []float64{1, 4},
		},
		Metric:    scenario.MetricSpec{Name: "app-throughput"},
		Eval:      scenario.EvalSpec{Mode: "max-flows", Hi: 48, QuickHi: 24, Threshold: 99},
		HorizonMs: 500,
	}
}

// Fig12Spec: flow aging (§7): max and mean FCT vs aging rate α,
// flow-level, with a long flow contending against a stream of short
// flows, compared with RCP. The RCP rows are fixed baselines: the axis
// does not apply to them.
func Fig12Spec() *scenario.Spec {
	maxFCT := &scenario.MetricSpec{Name: "fct-quantile", Params: map[string]float64{"q": 100, "ms": 1}}
	meanFCT := &scenario.MetricSpec{Name: "mean-fct", Params: map[string]float64{"ms": 1}}
	return &scenario.Spec{
		Name:     "fig12",
		Desc:     "max/mean FCT [ms] vs aging rate (flow-level)",
		Digits:   1,
		Topology: scenario.TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": 8}},
		Workload: scenario.WorkloadSpec{Custom: "long-vs-shorts"},
		Protocols: []scenario.ProtoSpec{
			{Label: "PDQ; Max", Runner: "flow:PDQ", Metric: maxFCT},
			{Label: "PDQ; Mean", Runner: "flow:PDQ", Metric: meanFCT},
			{Label: "RCP/D3; Max", Runner: "flow:RCP", Metric: maxFCT, Fixed: true},
			{Label: "RCP/D3; Mean", Runner: "flow:RCP", Metric: meanFCT, Fixed: true},
		},
		Sweep: &scenario.SweepSpec{
			Axis:        "runner:aging",
			Values:      []float64{0, 1, 2, 4, 8, 16},
			Labels:      []string{"a=0", "a=1", "a=2", "a=4", "a=8", "a=16"},
			QuickValues: []float64{0, 4, 16},
			QuickLabels: []string{"a=0", "a=4", "a=16"},
		},
		Metric:    scenario.MetricSpec{Name: "mean-fct"},
		HorizonMs: 10000,
	}
}
