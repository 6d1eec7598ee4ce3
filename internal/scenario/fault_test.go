package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pdq/internal/params"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

func init() {
	// A deliberately failing runner for the partial-table tests: panics
	// when its `boom` parameter is set, otherwise reports one fixed flow.
	// With echo > 0 that flow takes echo × the cell's base seed seconds,
	// so a mean-fct cell shows the seed it ran at.
	runners = params.NewRegistry("runner", RunnerEntry.decl, append(runners.List(), RunnerEntry{
		Name: "test:boom", Doc: "test-only: panics when boom=1", Level: "flow",
		Params: map[string]float64{"boom": 0, "echo": 0},
		Make: func(p map[string]float64, seed int64) RunnerFunc {
			return func(_ func() *topo.Topology, _ []workload.Flow, _ RunCtx) []workload.Result {
				if p["boom"] != 0 {
					panic("boom: injected test failure")
				}
				finish := sim.Millisecond
				if echo := p["echo"]; echo > 0 {
					finish = sim.Time(echo) * sim.Time(seed) * sim.Second
				}
				return []workload.Result{{Flow: workload.Flow{Size: 1000}, Finish: finish}}
			}
		},
	}))
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
		if len(tab.Errors) > 0 {
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
// here Detour finds one and the flow-level reroute hook replaces
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
		if len(tab.Errors) > 0 {
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
	if len(tab.Errors) > 0 {
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
	for _, fr := range ct.Flows {
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

// TestFaultRefusesUnreadFields: a field the fault's kind does not read
// would change nothing, so compile refuses it, naming the fault's index,
// its kind and the field.
func TestFaultRefusesUnreadFields(t *testing.T) {
	ok := FaultSpec{Kind: "link-down", Host: -1, DownMs: 1, UpMs: 5}
	cases := []struct {
		fault FaultSpec
		field string
	}{
		{FaultSpec{Kind: "switch-crash", Switch: 1, AtMs: 2, DownMs: 1}, "down_ms"},
		{FaultSpec{Kind: "switch-crash", Switch: 1, AtMs: 2, UpMs: 3}, "up_ms"},
		{FaultSpec{Kind: "switch-crash", Switch: 1, Host: 2}, "host"},
		{FaultSpec{Kind: "switch-crash", Switch: 1, LossBad: 0.5}, "loss_bad"},
		{FaultSpec{Kind: "link-down", Host: 1, UpMs: 5, AtMs: 1}, "at_ms"},
		{FaultSpec{Kind: "link-down", Host: 1, UpMs: 5, RestartMs: 4}, "restart_ms"},
		{FaultSpec{Kind: "link-down", Host: 1, UpMs: 5, Switch: 1}, "switch"},
		{FaultSpec{Kind: "link-down", Host: 1, UpMs: 5, PGB: 0.1}, "p_gb"},
		{FaultSpec{Kind: "link-down", Host: 1, UpMs: 5, LossGood: 0.1}, "loss_good"},
		{FaultSpec{Kind: "gilbert-loss", Host: 1, PGB: 0.1, Switch: 2}, "switch"},
		{FaultSpec{Kind: "gilbert-loss", Host: 1, PGB: 0.1, DownMs: 2}, "down_ms"},
		{FaultSpec{Kind: "gilbert-loss", Host: 1, PBG: 0.1, RestartMs: 2}, "restart_ms"},
	}
	for _, tc := range cases {
		t.Run(tc.fault.Kind+"/"+tc.field, func(t *testing.T) {
			s := linkFailSpec()
			s.Faults = []FaultSpec{ok, tc.fault}
			_, err := Run(s, Opts{})
			want := "fault 1 (" + tc.fault.Kind + "): " + tc.field + " is not read"
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("error %v, want one containing %q", err, want)
			}
		})
	}
	s := linkFailSpec()
	s.Protocols = []ProtoSpec{{Runner: "PDQ(Full)"}}
	s.Faults = []FaultSpec{ok,
		{Kind: "switch-crash", Switch: 0, AtMs: 2, RestartMs: 3},
		{Kind: "gilbert-loss", Host: 1, PGB: 0.1, PBG: 0.5, LossGood: 0.01, LossBad: 0.5}}
	if _, err := Run(s, Opts{}); err != nil {
		t.Fatalf("every field read by its kind, yet refused: %v", err)
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
	if len(tab.Errors) == 0 {
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

// TestZeroByteFlowFailsEveryPacketCell: a size distribution that would
// yield empty flows is refused when the spec compiles, naming its
// parameter, and an empty flow handed to a runner anyway fails the run the
// same way under all six packet protocols and the three flow-level
// simulator runners — the one refusal both simulators make at Start
// (workload.Flow.CheckStart). (TCP, DCTCP and pFabric used to run a flow of
// zero segments that never finished and report 0.00, and flow:PDQ finished
// one at once.)
func TestZeroByteFlowFailsEveryPacketCell(t *testing.T) {
	s := minimalSpec()
	s.Workload.Sizes = DistSpec{Name: "uniform", Params: map[string]float64{"lo_kb": 0, "hi_kb": 0}}
	if _, err := Run(s, Opts{}); err == nil || !strings.Contains(err.Error(), `"lo_kb"`) {
		t.Fatalf("a spec of empty flows: error %v, want lo_kb refused", err)
	}
	for _, name := range []string{"PDQ(Full)", "RCP", "D3", "TCP", "DCTCP", "pFabric", "flow:PDQ", "flow:RCP", "flow:D3"} {
		e, p, err := runners.Resolve(name, nil)
		if err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "positive size and two distinct hosts") {
					t.Errorf("%s: recovered %q, want the refusal of an empty flow", name, msg)
				}
			}()
			build := func() *topo.Topology { return topo.SingleBottleneck(1, 1) }
			e.Make(p, 1)(build, []workload.Flow{{ID: 1, Src: 0, Dst: 1}}, RunCtx{Horizon: 10 * sim.Millisecond})
		}()
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
	if len(tab.Errors) == 0 {
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
	if len(tab.Errors) == 0 {
		t.Fatalf("immediate interrupt did not fail the cell:\n%s", tab)
	}
	if !strings.Contains(tab.Errors[0].Msg, "interrupted") {
		t.Errorf("diagnostic %q does not name the interrupt", tab.Errors[0].Msg)
	}
}

// TestFlowWatchdogInterrupt pins that the flow-level simulator runs under
// the watchdog too: with a factory that interrupts at once, every cell of
// every flowsim row, at every replicate, fails with the interrupt
// diagnostic. (flow:fluid is closed-form and runs no loop to interrupt.)
// A pair metric's cells, whose runs several rows share, fail the same way.
func TestFlowWatchdogInterrupt(t *testing.T) {
	o := Opts{Parallel: 2, Trials: 2,
		Watchdog: func(interrupt func()) (stop func()) { interrupt(); return func() {} }}
	pair := minimalSpec()
	ratio := func(stat float64) ProtoSpec {
		return ProtoSpec{Label: fmt.Sprint(stat), Runner: "flow:PDQ", Ref: "flow:RCP",
			Metric: &MetricSpec{Name: "fct-ratio", Params: map[string]float64{"stat": stat}}}
	}
	pair.Protocols = []ProtoSpec{ratio(0), ratio(3)}
	tab, err := Run(pair, o)
	if err != nil {
		t.Fatalf("pair: a guard trip is a failed cell, not the error: %v", err)
	}
	if len(tab.Errors) != 2*2 || !strings.Contains(tab.Errors[0].Msg, "flowsim: run interrupted after 0 steps") {
		t.Fatalf("pair: want every cell replicate interrupted:\n%s", tab)
	}
	s := minimalSpec()
	s.Protocols = []ProtoSpec{{Runner: "flow:PDQ"}, {Runner: "flow:RCP"}, {Runner: "flow:D3"}}
	s.Sweep = &SweepSpec{Axis: "flows", Values: []float64{2, 4}}
	if tab, err = Run(s, o); err != nil {
		t.Fatal(err)
	}
	if len(tab.Errors) != 3*2*2 {
		t.Fatalf("%d failed cell replicates, want all 12:\n%s", len(tab.Errors), tab)
	}
	for _, e := range tab.Errors {
		if !strings.Contains(e.Msg, "flowsim: run interrupted after 0 steps") {
			t.Errorf("cell %s × %s rep %d: diagnostic %q does not name the interrupt", e.Row, e.Col, e.Rep, e.Msg)
		}
	}
	for _, r := range tab.Rows {
		for _, v := range r.Vals {
			if !math.IsNaN(v) {
				t.Errorf("row %s holds %v, want NaN in every cell", r.Label, v)
			}
		}
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
