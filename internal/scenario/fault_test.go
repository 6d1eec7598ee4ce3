package scenario

import (
	"math"
	"strings"
	"testing"

	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

func init() {
	// A deliberately failing runner for the partial-table tests: panics
	// when its `boom` parameter is set, otherwise reports one fixed flow.
	RegisterRunner(RunnerEntry{
		Name: "test:boom", Doc: "test-only: panics when boom=1", Level: "flow",
		Params: map[string]float64{"boom": 0},
		Make: func(p map[string]float64, _ int64) RunnerFunc {
			return func(_ func() *topo.Topology, _ []workload.Flow, _ RunCtx) []workload.Result {
				if p["boom"] != 0 {
					panic("boom: injected test failure")
				}
				return []workload.Result{{Flow: workload.Flow{Size: 1000}, Finish: sim.Millisecond}}
			}
		},
	})
}

// linkFailSpec is a packet+flow grid with a receiver link-down window,
// exercising both simulators' fault paths.
func linkFailSpec() *Spec {
	return &Spec{
		Name:     "linkfail-test",
		Topology: TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": 4}},
		Workload: WorkloadSpec{
			Pattern: PatternSpec{Name: "aggregation"},
			Sizes:   DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 50}},
			Count:   4,
		},
		Faults: []FaultSpec{
			{Kind: "link-down", Host: -1, DownMs: 1, UpMs: 5},
		},
		Protocols: []ProtoSpec{{Runner: "PDQ(Full)"}, {Runner: "TCP"}, {Runner: "flow:RCP"}},
		Metric:    MetricSpec{Name: "recovery-ms", Params: map[string]float64{"after_ms": 5}},
		HorizonMs: 200,
	}
}

// TestFaultGoldenAcrossWorkers pins the determinism claim of DESIGN.md
// §11: a faulted sweep renders byte-identically at any worker count.
func TestFaultGoldenAcrossWorkers(t *testing.T) {
	var golden string
	for _, workers := range []int{1, 4, 8} {
		tab, err := Run(linkFailSpec(), Opts{Parallel: workers, Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		if tab.Partial() {
			t.Fatalf("parallel=%d: unexpected failed cells:\n%s", workers, tab)
		}
		if golden == "" {
			golden = tab.String()
			continue
		}
		if got := tab.String(); got != golden {
			t.Fatalf("parallel=%d output diverged:\n--- parallel=1\n%s--- parallel=%d\n%s", workers, golden, workers, got)
		}
	}
	// A faulted run must actually stall: nothing can finish before the
	// link comes back, so recovery is strictly positive for every row.
	tab := MustRun(linkFailSpec(), Opts{})
	for _, r := range tab.Rows {
		if r.Vals[0] <= 0 {
			t.Errorf("row %s: recovery-ms = %v, want > 0 (link was down until 5 ms)", r.Label, r.Vals[0])
		}
	}
}

// flowFailoverSpec crashes a fat-tree aggregation switch, with a restart
// window, under the three flow-level allocators. linkFailSpec's single
// bottleneck has no second route, so its faults only ever stall flows;
// here PathExcluding finds one and the flow-level reroute hook replaces
// paths mid-run (internal/flowsim's TestFailoverReroutesFlows checks the
// allocators call by call on the same topology). Switch 4 is pod 0's
// first aggregation switch: lowest-ID routing sends all of the pod's
// inter-pod traffic through it, and failing over to its sibling moves
// that traffic to another core row. (Crashing core switch 0 instead
// moves every flow to core 1 together, an isomorphic network with the
// same FCTs to the last bit.)
func flowFailoverSpec() *Spec {
	return &Spec{
		Name:     "flow-failover-test",
		Topology: TopoSpec{Name: "fat-tree", Params: map[string]float64{"k": 4}},
		Workload: WorkloadSpec{
			Pattern:      PatternSpec{Name: "permutation"},
			Sizes:        DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 400}},
			CountPerHost: 3,
		},
		Faults: []FaultSpec{
			{Kind: "switch-crash", Switch: 4, AtMs: 2, RestartMs: 6},
		},
		Protocols: []ProtoSpec{{Runner: "flow:PDQ"}, {Runner: "flow:RCP"}, {Runner: "flow:D3"}},
		Metric:    MetricSpec{Name: "mean-fct", Params: map[string]float64{"ms": 1}},
		HorizonMs: 2000,
	}
}

// TestFlowFailoverAcrossWorkers: the rerouted flow-level run renders
// byte-identically at any worker count, and the crash really moved the
// outcome of every allocator (it would not if no path crossed the
// switch or no flow could be rerouted around it).
func TestFlowFailoverAcrossWorkers(t *testing.T) {
	var golden string
	for _, workers := range []int{1, 4} {
		tab, err := Run(flowFailoverSpec(), Opts{Parallel: workers, Trials: 2})
		if err != nil {
			t.Fatal(err)
		}
		if tab.Partial() {
			t.Fatalf("parallel=%d: unexpected failed cells:\n%s", workers, tab)
		}
		if golden == "" {
			golden = tab.String()
			continue
		}
		if got := tab.String(); got != golden {
			t.Fatalf("parallel=%d output diverged:\n--- parallel=1\n%s--- parallel=%d\n%s", workers, golden, workers, got)
		}
	}
	faulted := MustRun(flowFailoverSpec(), Opts{})
	clean := flowFailoverSpec()
	clean.Faults = nil
	plain := MustRun(clean, Opts{})
	for ri, r := range faulted.Rows {
		if r.Vals[0] == plain.Rows[ri].Vals[0] {
			t.Errorf("row %s: mean FCT %v with and without the crash", r.Label, r.Vals[0])
		}
	}
}

// TestFaultChangesOutcome guards against the schedule silently not being
// applied: the same spec without its faults block must differ.
func TestFaultChangesOutcome(t *testing.T) {
	faulted := MustRun(linkFailSpec(), Opts{})
	clean := linkFailSpec()
	clean.Faults = nil
	plain := MustRun(clean, Opts{})
	same := true
	for ri := range faulted.Rows {
		if faulted.Rows[ri].Vals[0] != plain.Rows[ri].Vals[0] {
			same = false
		}
	}
	if same {
		t.Fatal("faulted and fault-free runs produced identical tables: schedule not applied")
	}
}

func TestSwitchRestartRecovery(t *testing.T) {
	s := &Spec{
		Name:     "switch-restart-test",
		Topology: TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": 4}},
		Workload: WorkloadSpec{
			Pattern: PatternSpec{Name: "aggregation"},
			Sizes:   DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 100}},
			Count:   4,
		},
		Faults: []FaultSpec{
			{Kind: "switch-crash", Switch: 0, AtMs: 2, RestartMs: 3},
		},
		Protocols: []ProtoSpec{{Runner: "PDQ(Full)"}},
		Metric:    MetricSpec{Name: "recovery-ms", Params: map[string]float64{"after_ms": 5}},
		HorizonMs: 500,
	}
	tr := trace.New(true, false)
	tab, err := Run(s, Opts{Trace: tr, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tab.Partial() {
		t.Fatalf("unexpected failed cells:\n%s", tab)
	}
	// Recovery time is measurable through the metric...
	if v := tab.Rows[0].Vals[0]; v <= 0 {
		t.Errorf("recovery-ms = %v, want > 0 (switch was down until 5 ms)", v)
	}
	// ... and the trace plane carries the transitions and the RTO story.
	cells := tr.Cells()
	if len(cells) != 1 {
		t.Fatalf("traced %d cells, want 1", len(cells))
	}
	ct := cells[0]
	if len(ct.Faults) != 2 {
		t.Fatalf("recorded %d fault transitions, want 2 (crash + restart):\n%+v", len(ct.Faults), ct.Faults)
	}
	if !ct.Faults[0].Down || ct.Faults[1].Down {
		t.Errorf("fault records misordered: %+v", ct.Faults)
	}
	if got, want := ct.Faults[0].Kind, "switch-crash"; got != want {
		t.Errorf("fault kind = %q, want %q", got, want)
	}
	if ct.Faults[1].At-ct.Faults[0].At != 3*sim.Millisecond {
		t.Errorf("outage length = %v, want 3ms", ct.Faults[1].At-ct.Faults[0].At)
	}
	retrans, finished := int32(0), 0
	for _, fr := range ct.Flows.Records() {
		retrans += fr.Retransmits
		if fr.Finish >= 0 {
			finished++
		}
	}
	if finished != 4 {
		t.Errorf("%d of 4 flows recovered after the restart", finished)
	}
	if retrans == 0 {
		t.Error("no retransmissions recorded: flows did not recover via RTO")
	}
}

func TestFaultSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		faults []FaultSpec
		want   string
	}{
		{"unknown kind", []FaultSpec{{Kind: "meteor-strike"}}, `unknown kind "meteor-strike"`},
		{"inverted window", []FaultSpec{{Kind: "link-down", Host: 0, DownMs: 10, UpMs: 5}}, "window inverted"},
		{"unknown host", []FaultSpec{{Kind: "link-down", Host: 99, UpMs: 5}}, "out of range"},
		{"unknown switch", []FaultSpec{{Kind: "switch-crash", Switch: 7}}, "out of range"},
		{"bad probability", []FaultSpec{{Kind: "gilbert-loss", Host: 0, PGB: 2}}, "outside [0, 1]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := minimalSpec()
			s.Faults = tc.faults
			_, err := Run(s, Opts{})
			if err == nil {
				t.Fatal("Run accepted an invalid faults block")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestPanickingCellYieldsPartialTable pins the executor's failure
// isolation: one panicking cell becomes NaN plus a diagnostic while the
// rest of the grid completes.
func TestPanickingCellYieldsPartialTable(t *testing.T) {
	s := minimalSpec()
	s.Protocols = []ProtoSpec{{Runner: "test:boom"}}
	s.Sweep = &SweepSpec{Axis: "runner:boom", Values: []float64{0, 1}}
	tab, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Partial() {
		t.Fatalf("no errors captured:\n%s", tab)
	}
	if v := tab.Rows[0].Vals[0]; math.IsNaN(v) || v <= 0 {
		t.Errorf("healthy cell = %v, want a finite positive value", v)
	}
	if v := tab.Rows[0].Vals[1]; !math.IsNaN(v) {
		t.Errorf("failed cell = %v, want NaN", v)
	}
	if len(tab.Errors) != 1 {
		t.Fatalf("captured %d errors, want 1: %+v", len(tab.Errors), tab.Errors)
	}
	e := tab.Errors[0]
	if e.Col != "1" || !strings.Contains(e.Msg, "boom") {
		t.Errorf("diagnostic %+v does not identify the failed cell", e)
	}
	if !strings.Contains(tab.String(), "failed cell") {
		t.Errorf("rendered table hides the failure:\n%s", tab)
	}
}

// TestZeroByteFlowFailsEveryPacketCell: a size distribution that yields
// empty flows fails the cell the same way under all six packet protocols —
// the host scaffold's one refusal — and no row prints a number. (TCP, DCTCP
// and pFabric used to run a flow of zero segments that never finished and
// report 0.00.)
func TestZeroByteFlowFailsEveryPacketCell(t *testing.T) {
	s := minimalSpec()
	s.Workload.Sizes = DistSpec{Name: "uniform", Params: map[string]float64{"lo_kb": 0, "hi_kb": 0}}
	s.Protocols = []ProtoSpec{{Runner: "PDQ(Full)"}, {Runner: "RCP"}, {Runner: "D3"}, {Runner: "TCP"}, {Runner: "DCTCP"}, {Runner: "pFabric"}}
	tab, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Errors) != len(s.Protocols) {
		t.Fatalf("captured %d errors, want one per row:\n%s", len(tab.Errors), tab)
	}
	for i, r := range tab.Rows {
		if !math.IsNaN(r.Vals[0]) {
			t.Errorf("row %s = %v, want NaN", r.Label, r.Vals[0])
		}
		e := tab.Errors[i]
		if e.Row != r.Label || e.Msg != tab.Errors[0].Msg || !strings.Contains(e.Msg, "positive size") {
			t.Errorf("row %s: diagnostic %+v, want the refusal %q", r.Label, e, tab.Errors[0].Msg)
		}
	}
}

// TestRunawayCellTripsEventBudget pins satellite 2: -max-events turns a
// too-expensive cell into a diagnostic instead of an unbounded run.
func TestRunawayCellTripsEventBudget(t *testing.T) {
	s := linkFailSpec()
	s.Protocols = []ProtoSpec{{Runner: "TCP"}}
	tab, err := Run(s, Opts{MaxEvents: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !tab.Partial() {
		t.Fatalf("50-event budget did not trip:\n%s", tab)
	}
	if !strings.Contains(tab.Errors[0].Msg, "event budget exhausted") {
		t.Errorf("diagnostic %q does not name the budget", tab.Errors[0].Msg)
	}
	if !math.IsNaN(tab.Rows[0].Vals[0]) {
		t.Errorf("tripped cell = %v, want NaN", tab.Rows[0].Vals[0])
	}
}

// TestWatchdogInterrupt drives the wall-clock watchdog path without a
// wall clock: the injected factory interrupts immediately.
func TestWatchdogInterrupt(t *testing.T) {
	s := linkFailSpec()
	s.Protocols = []ProtoSpec{{Runner: "TCP"}}
	fired := false
	tab, err := Run(s, Opts{
		Parallel: 1,
		Watchdog: func(interrupt func()) (stop func()) {
			fired = true
			interrupt()
			return func() {}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Fatal("watchdog factory never armed")
	}
	if !tab.Partial() {
		t.Fatalf("immediate interrupt did not fail the cell:\n%s", tab)
	}
	if !strings.Contains(tab.Errors[0].Msg, "interrupted") {
		t.Errorf("diagnostic %q does not name the interrupt", tab.Errors[0].Msg)
	}
}

// TestFaultedCellsCacheDistinctly pins the cache-key extension: the same
// spec with and without faults must address different cells.
func TestFaultedCellsCacheDistinctly(t *testing.T) {
	dir := t.TempDir()
	c, err := trace.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	MustRun(linkFailSpec(), Opts{Cache: c})
	if c.Hits() != 0 {
		t.Fatalf("first run hit the cache %d times", c.Hits())
	}
	misses := c.Misses()
	clean := linkFailSpec()
	clean.Faults = nil
	MustRun(clean, Opts{Cache: c})
	if c.Hits() != 0 {
		t.Fatalf("fault-free run hit the faulted run's cells %d times", c.Hits())
	}
	if c.Misses() == misses {
		t.Fatal("fault-free run computed nothing new")
	}
	// Re-running the faulted spec hits every cell.
	before := c.Hits()
	MustRun(linkFailSpec(), Opts{Cache: c})
	if c.Hits() == before {
		t.Fatal("faulted rerun did not hit its own cells")
	}
}
