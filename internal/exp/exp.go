// Package exp reproduces every table/figure of the PDQ paper's
// evaluation (§5–§7) as a declarative scenario spec (internal/scenario):
// each figure names its topology, workload, protocol rows, sweep axis
// and metric, and the generic scenario engine regenerates the same data
// series the paper plots — using the packet-level simulator
// (internal/core + internal/protocol/...) or the flow-level simulator
// (internal/flowsim) as the paper does for that figure.
//
// cmd/pdqsim runs these specs through scenario.Run like any scenario
// file. Opts.Quick shrinks every sweep so the full set runs in seconds
// (the scale of the tests and of benchmark/'s figures-quick), while the
// default reproduces each figure at closer to paper scale.
package exp

import (
	"sort"

	"pdq/internal/scenario"
)

// ProtoOrder is the paper's legend order for the full protocol set.
var ProtoOrder = []string{"PDQ(Full)", "PDQ(ES+ET)", "PDQ(ES)", "PDQ(Basic)", "D3", "RCP", "TCP"}

// fctProtos is the protocol rows of the FCT figures. RCP ≡ D3 without
// deadlines (§5.1), so the paper plots them as one curve, RCP/D3.
func fctProtos() []scenario.ProtoSpec {
	return append(protoRows("PDQ(Full)", "PDQ(ES)", "PDQ(Basic)"),
		scenario.ProtoSpec{Label: "RCP/D3", Runner: "RCP"}, scenario.ProtoSpec{Runner: "TCP"})
}

// deadlineProtos is the protocol rows of the deadline figures: the
// paper's Optimal — the omniscient scheduler of §5.2.1, EDF with
// Moore–Hodgson on the bottleneck, run on the same flows — then the
// full protocol set.
func deadlineProtos() []scenario.ProtoSpec {
	optimal := scenario.ProtoSpec{Label: "Optimal", Runner: "flow:fluid", Params: map[string]float64{"policy": 2}}
	return append([]scenario.ProtoSpec{optimal}, protoRows(ProtoOrder...)...)
}

// protoRows turns a protocol name list into spec rows.
func protoRows(names ...string) []scenario.ProtoSpec {
	rows := make([]scenario.ProtoSpec, 0, len(names))
	for _, n := range names {
		rows = append(rows, scenario.ProtoSpec{Runner: n})
	}
	return rows
}

// metricRow is a labelled row of runner whose cells report the named
// metric; rows of one runner share its simulation.
func metricRow(label, runner, metric string, p map[string]float64) scenario.ProtoSpec {
	return scenario.ProtoSpec{Label: label, Runner: runner, Metric: &scenario.MetricSpec{Name: metric, Params: p}}
}

// bottleneck is the single-bottleneck topology with the given senders.
func bottleneck(senders float64) scenario.TopoSpec {
	return scenario.TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": senders}}
}

// treeHosts is the server count of the paper's default topology
// (Fig. 2a): the two-level 12-server single-rooted tree the registry
// builds as "single-rooted-tree" with default parameters.
const treeHosts = 12

// defaultTree is the spec form of that topology.
func defaultTree() scenario.TopoSpec {
	return scenario.TopoSpec{Name: "single-rooted-tree"}
}

// uniformMeanKB is the paper's uniform size distribution around a mean.
func uniformMeanKB(kb float64) scenario.DistSpec {
	return scenario.DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": kb}}
}

// aggregation is the §5.2 query-aggregation pattern.
func aggregation() scenario.PatternSpec { return scenario.PatternSpec{Name: "aggregation"} }

// permutation is random permutation traffic.
func permutation() scenario.PatternSpec { return scenario.PatternSpec{Name: "permutation"} }

// meanDeadlineMsDflt is the paper's default mean flow deadline (§5.1).
const meanDeadlineMsDflt = 20

// Specs maps every figure name to its declarative spec. The specs are
// data: cmd/pdqsim can print them (-dump-scenario) as JSON templates for
// new scenarios.
var Specs = map[string]func() *scenario.Spec{
	"fig1": Fig1Spec, "fig3a": Fig3aSpec, "fig3b": Fig3bSpec, "fig3c": Fig3cSpec,
	"fig3d": Fig3dSpec, "fig3e": Fig3eSpec, "fig4a": Fig4aSpec, "fig4b": Fig4bSpec,
	"fig5a": Fig5aSpec, "fig5b": Fig5bSpec, "fig5c": Fig5cSpec, "fig6": Fig6Spec,
	"fig7": Fig7Spec, "fig8a": Fig8aSpec, "fig8b": Fig8bSpec, "fig8c": Fig8cSpec,
	"fig8d": Fig8dSpec, "fig8e": Fig8eSpec, "fig9a": Fig9aSpec, "fig9b": Fig9bSpec,
	"fig10": Fig10Spec, "fig11a": Fig11aSpec, "fig11b": Fig11bSpec, "fig11c": Fig11cSpec,
	"fig12": Fig12Spec,
}

// Figures is the registry of all reproduced figures, each run by its spec.
var Figures = map[string]func(scenario.Opts) *scenario.Table{}

func init() {
	for name, sf := range Specs {
		Figures[name] = func(o scenario.Opts) *scenario.Table { return scenario.MustRun(sf(), o) }
	}
}

// FigureNames returns the registry keys in sorted order.
func FigureNames() []string {
	var names []string
	for k := range Figures {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}
