package scenario

import (
	"math"
	"strings"
	"testing"

	"pdq/internal/obsv"
	"pdq/internal/trace"
)

// TestProgressTotalsMatchTable pins the sweep state machine's accounting
// contract (ISSUE 9): announced cells equal the grid's replicate count,
// every announced cell reaches done or failed — failed and cached cells
// included — and failures match the table's diagnostics.
func TestProgressTotalsMatchTable(t *testing.T) {
	s := minimalSpec()
	s.Protocols = []ProtoSpec{{Runner: "flow:RCP", Fixed: true}, {Runner: "test:boom"}}
	s.Sweep = &SweepSpec{Axis: "runner:boom", Values: []float64{0, 1}}
	o := Opts{Obs: obsv.New(obsv.WallClock), Trials: 2}
	tab, err := Run(s, o)
	if err != nil {
		t.Fatal(err)
	}
	runs := o.Obs.Runs()
	if len(runs) != 1 {
		t.Fatalf("registered %d runs, want 1", len(runs))
	}
	snap := runs[0]
	if snap.Name != s.Name {
		t.Errorf("run name %q, want %q", snap.Name, s.Name)
	}
	wantTotal := uint64(len(tab.Rows) * len(tab.Cols) * 2) // ×2 replicates
	if snap.Total != wantTotal {
		t.Errorf("announced %d cells, want %d", snap.Total, wantTotal)
	}
	if snap.Done+snap.Failed != snap.Total {
		t.Errorf("done %d + failed %d != total %d", snap.Done, snap.Failed, snap.Total)
	}
	if snap.Failed != uint64(len(tab.Errors)) {
		t.Errorf("failed %d, want %d (table errors)", snap.Failed, len(tab.Errors))
	}
	if snap.Failed == 0 {
		t.Errorf("boom row produced no failures:\n%s", tab)
	}
	if !snap.Finished {
		t.Error("run not stamped finished")
	}
	if snap.Running != 0 {
		t.Errorf("cells still running: %d", snap.Running)
	}
}

// TestProgressCountsCachedCells pins that cache-served replicates still
// flow through the state machine — counted done AND cached, so the
// hit ratio is exact and done+failed still reaches the total.
func TestProgressCountsCachedCells(t *testing.T) {
	cache, err := trace.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := minimalSpec()
	if _, err := Run(s, Opts{Cache: cache}); err != nil { // cold fill
		t.Fatal(err)
	}
	o := Opts{Cache: cache, Obs: obsv.New(obsv.WallClock)}
	if _, err := Run(s, o); err != nil {
		t.Fatal(err)
	}
	snap := o.Obs.Runs()[0]
	if snap.Total != 1 || snap.Done != 1 {
		t.Fatalf("warm run snapshot = %+v, want 1 cell done", snap)
	}
	if snap.Cached != 1 {
		t.Errorf("cached = %d, want 1 (cache hits %d)", snap.Cached, cache.Hits())
	}
	if snap.HitRatio != 1 {
		t.Errorf("hit ratio = %g, want 1", snap.HitRatio)
	}
}

// fatTreeSpec is a multi-rack packet-level cell: a fat-tree with
// permutation traffic, so every flow traverses at least one inter-switch
// link.
func fatTreeSpec(runner string) *Spec {
	return &Spec{
		Name:     "fat-tree-test",
		Topology: TopoSpec{Name: "fat-tree", Params: map[string]float64{"k": 4}},
		Workload: WorkloadSpec{
			Pattern: PatternSpec{Name: "permutation"},
			Sizes:   DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 30}},
			Count:   16,
		},
		Protocols: []ProtoSpec{{Runner: runner}},
		Metric:    MetricSpec{Name: "mean-fct"},
		HorizonMs: 500,
	}
}

// TestObservabilityPreservesTables is the determinism half of the
// tentpole: the same spec renders byte-identically with the plane
// enabled and disabled, and the aggregate actually saw the run.
func TestObservabilityPreservesTables(t *testing.T) {
	base, err := Run(fatTreeSpec("TCP"), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	obsrv := obsv.New(obsv.WallClock)
	got, err := Run(fatTreeSpec("TCP"), Opts{Obs: obsrv})
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != base.String() {
		t.Errorf("observability changed the table:\n--- off\n%s\n--- on\n%s", base, got)
	}
	rt := obsrv.Runtime.Snapshot()
	if rt.Fired == 0 || rt.Scheduled < rt.Fired {
		t.Errorf("engine counters missing: %+v", rt)
	}
}

// TestFailedCellMergesEngineStats pins that a cell cut short by a guard
// panic keeps the engine counts it reached in its record, and so in the
// aggregate.
func TestFailedCellMergesEngineStats(t *testing.T) {
	s := minimalSpec()
	s.Protocols = []ProtoSpec{{Runner: "TCP"}}
	s.Workload.Count = 4
	o := Opts{MaxEvents: 50, Obs: obsv.New(nil)}
	tab, err := Run(s, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Errors) == 0 || !math.IsNaN(tab.Rows[0].Vals[0]) {
		t.Fatalf("50-event budget did not trip:\n%s", tab)
	}
	snap := o.Obs.Runs()[0]
	if snap.Failed != 1 || snap.Done != 0 || len(snap.Cells) != 1 {
		t.Fatalf("snapshot = %+v, want the single cell failed", snap)
	}
	if c := snap.Cells[0]; c.Engine.Fired.Value() != 50 || c.Err != tab.Errors[0].Msg {
		t.Errorf("tripped cell's record %+v, want its 50 events and the table's error", c)
	}
	if rt := o.Obs.Runtime.Snapshot(); rt.Fired != 50 {
		t.Errorf("runtime fired %d, want the tripped cell's 50", rt.Fired)
	}
}

// TestSharedRunCreditedOnce pins where a metric-only sweep's shared
// simulations are counted: each (row, replicate) simulates once for the
// whole axis, and its engine and flow counts go to column 0's record
// alone, whichever cell's goroutine ran it. So the records, and the
// Runtime totals, do not depend on the worker count.
func TestSharedRunCreditedOnce(t *testing.T) {
	s := &Spec{
		Name:      "shared",
		Topology:  TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": 8}},
		Workload:  WorkloadSpec{Pattern: PatternSpec{Name: "aggregation"}, Sizes: DistSpec{Name: "uniform-mean"}, Count: 8},
		Protocols: []ProtoSpec{{Runner: "PDQ(Full)"}, {Runner: "TCP"}},
		Sweep:     &SweepSpec{Axis: "metric:at_ms", Values: []float64{2, 5, 20, 200}},
		Metric:    MetricSpec{Name: "fct-cdf"},
		HorizonMs: 500,
	}
	var totals []obsv.RuntimeSnapshot
	for _, workers := range []int{1, 4} {
		o := Opts{Parallel: workers, Trials: 2, Obs: obsv.New(nil)}
		tab, err := Run(s, o)
		if err != nil {
			t.Fatal(err)
		}
		cells := o.Obs.Runs()[0].Cells
		if len(cells) != 2*4*2 {
			t.Fatalf("%d workers: %d records, want 16", workers, len(cells))
		}
		for _, c := range cells {
			counted := c.Engine.Fired.Value() > 0 || c.FlowsDone > 0
			if first := c.Col == tab.Cols[0]; counted != first || first && c.FlowsDone != 8 {
				t.Errorf("%d workers: %s × %s rep %d counted %d events, %d flows done; want counts in column %s only, all 8 flows",
					workers, c.Row, c.Col, c.Rep, c.Engine.Fired.Value(), c.FlowsDone, tab.Cols[0])
			}
		}
		totals = append(totals, o.Obs.Runtime.Snapshot())
	}
	if totals[0] != totals[1] || totals[0].Fired == 0 {
		t.Errorf("runtime totals at 1 and 4 workers: %+v, %+v", totals[0], totals[1])
	}
}

// searchSpec is a small max-flows search: deadline flows into one
// receiver of the default tree, so a few dozen of them overload it.
func searchSpec(runner string) *Spec {
	return &Spec{
		Name:     "search-test",
		Topology: TopoSpec{Name: "single-rooted-tree"},
		Workload: WorkloadSpec{
			Pattern:        PatternSpec{Name: "aggregation"},
			Sizes:          DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 100}},
			MeanDeadlineMs: 20,
		},
		Protocols: []ProtoSpec{{Runner: runner}},
		Metric:    MetricSpec{Name: "app-throughput"},
		Eval:      EvalSpec{Mode: "max-flows", Hi: 32, Threshold: 99},
		HorizonMs: 500,
	}
}

// TestProbeCounters pins what the sweep run reports about its search
// probes, and with it which probes may stop: those whose metric has an
// interval. A metric without one runs every probe to the horizon.
func TestProbeCounters(t *testing.T) {
	run := func(s *Spec, o Opts) (string, obsv.SweepSnapshot) {
		t.Helper()
		o.Obs = obsv.New(nil)
		tab, err := Run(s, o)
		if err != nil {
			t.Fatal(err)
		}
		return tab.String(), o.Obs.Runs()[0]
	}
	_, snap := run(searchSpec("PDQ(Full)"), Opts{})
	if snap.Probes < 2 || snap.Decided == 0 || snap.Decided > snap.Probes {
		t.Errorf("%d probes, %d decided, want most of several decided", snap.Probes, snap.Decided)
	}
	s := searchSpec("PDQ(Full)")
	s.Metric = MetricSpec{Name: "mean-fct"} // falls with n: every probe fails 99
	if _, snap = run(s, Opts{}); snap.Probes == 0 || snap.Decided != 0 {
		t.Errorf("metric without an interval: %d probes, %d decided, want some and 0", snap.Probes, snap.Decided)
	}
	s = searchSpec("flow:PDQ")
	s.Workload.MeanDeadlineMs = 0 // no deadline flows: 100 % before the first event
	if tab, snap := run(s, Opts{}); snap.Decided != snap.Probes || !strings.Contains(tab, "32") {
		t.Errorf("no deadline flows: %d of %d probes decided, table\n%s", snap.Decided, snap.Probes, tab)
	}
	if _, snap = run(minimalSpec(), Opts{}); snap.Probes != 0 {
		t.Errorf("run-mode spec counted %d probes", snap.Probes)
	}
}
