// Package exp reproduces every table/figure of the PDQ paper's
// evaluation (§5–§7) as a declarative scenario spec (internal/scenario):
// each figure names its topology, workload, protocol rows, sweep axis
// and metric, and the generic scenario engine regenerates the same data
// series the paper plots — using the packet-level simulator
// (internal/core + internal/protocol/...) or the flow-level simulator
// (internal/flowsim) as the paper does for that figure.
//
// Every driver accepts scenario.Opts; Opts.Quick shrinks the sweep so the
// full set runs in seconds (used by the benchmarks in bench_test.go),
// while the default reproduces the figure at closer to paper scale via
// cmd/pdqsim.
package exp

import (
	"sort"

	"pdq/internal/scenario"
)

// ProtoOrder is the paper's legend order for the full protocol set.
var ProtoOrder = []string{"PDQ(Full)", "PDQ(ES+ET)", "PDQ(ES)", "PDQ(Basic)", "D3", "RCP", "TCP"}

// fctProtos is the protocol set of the FCT figures (RCP ≡ D3 without
// deadlines, so the paper plots them as one curve; the registry's
// "RCP/D3" runner is that alias).
var fctProtos = []string{"PDQ(Full)", "PDQ(ES)", "PDQ(Basic)", "RCP/D3", "TCP"}

// protoRows turns a protocol name list into spec rows.
func protoRows(names ...string) []scenario.ProtoSpec {
	rows := make([]scenario.ProtoSpec, 0, len(names))
	for _, n := range names {
		rows = append(rows, scenario.ProtoSpec{Runner: n})
	}
	return rows
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

// Figures is the registry of all reproduced figures as runnable drivers.
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
