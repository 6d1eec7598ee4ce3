package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pdq/internal/fluid"
	"pdq/internal/netsim"
	"pdq/internal/obsv"
	"pdq/internal/sim"
	"pdq/internal/stats"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

// optimalSpec is a single-bottleneck batch grid with one row, the paper's
// Optimal (§5.2.1) as the figure specs write it: flow:fluid under policy
// 2, Moore–Hodgson in EDF order, read as app-throughput.
func optimalSpec(meanKB, deadlineMs float64, counts []float64, horizonMs float64) *Spec {
	return &Spec{
		Name:     "optimal",
		Topology: TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": 8}},
		Workload: WorkloadSpec{
			Pattern:        PatternSpec{Name: "aggregation"},
			Sizes:          DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": meanKB}},
			MeanDeadlineMs: deadlineMs,
		},
		Protocols: []ProtoSpec{{Label: "Optimal", Runner: "flow:fluid", Params: map[string]float64{"policy": 2}}},
		Sweep:     &SweepSpec{Axis: "flows", Values: counts},
		Metric:    MetricSpec{Name: "app-throughput"},
		HorizonMs: horizonMs,
	}
}

// TestOptimalRowIsOptimalAppThroughput is the equivalence the Optimal
// rows rest on: on single-bottleneck batches in which every flow has a
// deadline and finishes within the horizon, the row's cell is
// fluid.OptimalAppThroughput of the cell's flows, bit for bit, and the
// row's max-flows search, whose probes stop at their verdict, finds the
// flow count a search over OptimalAppThroughput finds.
func TestOptimalRowIsOptimalAppThroughput(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 40; trial++ {
		meanKB := float64(5 + rng.Intn(300))
		deadlineMs := float64(1 + rng.Intn(60))
		counts := []float64{float64(1 + rng.Intn(8)), float64(9 + rng.Intn(56))}
		o := Opts{Seed: rng.Int63n(1 << 40)}
		e, err := compile(optimalSpec(meanKB, deadlineMs, counts, 1000), o)
		if err != nil {
			t.Fatal(err)
		}
		for ci := range e.cols {
			c := obsv.Cell{Seed: o.BaseSeed()}
			got := e.computeAlone(0, ci, &c)
			flows := e.cols[ci].gen(c.Seed, 0, 0)
			for _, f := range flows {
				if !f.HasDeadline() {
					t.Fatalf("trial %d: flow %d has no deadline", trial, f.ID)
				}
			}
			want := fluid.OptimalAppThroughput(flows, netsim.DefaultRate)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d (mean %v KB, deadline %v ms, %d flows): Optimal row %v, OptimalAppThroughput %v",
					trial, meanKB, deadlineMs, len(flows), got, want)
			}
			if c.FlowsDone != uint64(len(flows)) {
				t.Fatalf("trial %d: %d of %d flows done", trial, c.FlowsDone, len(flows))
			}
		}

		s := optimalSpec(meanKB, 0, nil, 1000)
		s.Sweep = &SweepSpec{Axis: "mean-deadline-ms", Values: []float64{deadlineMs, 2 * deadlineMs}}
		s.Eval = EvalSpec{Mode: "max-flows", Hi: 48, Threshold: []float64{50, 90, 99}[trial%3]}
		if e, err = compile(s, o); err != nil {
			t.Fatal(err)
		}
		for ci, col := range e.cols {
			c := obsv.Cell{Seed: o.BaseSeed()}
			got := e.compute(0, ci, &c)
			want := stats.MaxN(1, s.Eval.Hi, func(n int) bool {
				return fluid.OptimalAppThroughput(col.gen(c.Seed, n, 0), netsim.DefaultRate) >= s.Eval.Threshold
			})
			if got != float64(want) {
				t.Fatalf("trial %d (mean %v KB, deadline %v ms, threshold %v): the row's search finds %v flows, OptimalAppThroughput's %d",
					trial, meanKB, col.label, s.Eval.Threshold, got, want)
			}
			if c.Decided != c.Probes {
				t.Fatalf("trial %d: %d of %d probes stopped at their verdict", trial, c.Decided, c.Probes)
			}
		}
	}
}

// TestOptimalRowDiffersPastTheHorizon pins where the row and
// fluid.OptimalAppThroughput part. The row is a run: a flow whose
// closed-form completion lies past the horizon has not finished, and so
// missed its deadline, while the closed form counts it met. No shipped
// spec has a deadline past its horizon.
func TestOptimalRowDiffersPastTheHorizon(t *testing.T) {
	e, p, err := runners.Resolve("flow:fluid", map[string]float64{"policy": 2})
	if err != nil {
		t.Fatal(err)
	}
	m, mp, err := metrics.Resolve("app-throughput", nil)
	if err != nil {
		t.Fatal(err)
	}
	// 1.25 MB at 1 Gbps takes 10 ms, well inside the 50 ms deadline.
	flows := []workload.Flow{{ID: 1, Src: 0, Dst: 1, Size: 1250000, Deadline: 50 * sim.Millisecond}}
	rs := e.Make(p, 1)(nil, flows, RunCtx{Horizon: 5 * sim.Millisecond})
	if got := m.Fn(rs, flows, mp); got != 0 {
		t.Errorf("row past the horizon: %v, want 0", got)
	}
	if got := fluid.OptimalAppThroughput(flows, netsim.DefaultRate); got != 100 {
		t.Errorf("OptimalAppThroughput: %v, want 100", got)
	}
}

// TestOptimalRowRefusesDeadlineFreeFlows pins the case the old closed-form
// row would have read differently (its denominator counted every flow,
// app-throughput counts deadline flows only): it never arises, because
// Moore–Hodgson refuses a flow without a deadline. The row's cell fails
// with that reason, as fluid.OptimalAppThroughput panics with it.
func TestOptimalRowRefusesDeadlineFreeFlows(t *testing.T) {
	const reason = "MooreHodgson requires deadlines on all flows"
	tab, err := Run(optimalSpec(100, 0, []float64{4}, 1000), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Errors) != 1 || !strings.Contains(tab.Errors[0].Msg, reason) {
		t.Errorf("deadline-free Optimal cell: errors %+v, want one naming %q", tab.Errors, reason)
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), reason) {
			t.Errorf("OptimalAppThroughput on deadline-free flows: recovered %v", r)
		}
	}()
	fluid.OptimalAppThroughput([]workload.Flow{{ID: 1, Size: 1000}}, netsim.DefaultRate)
}

// TestTraceFluidRowRecords pins that a traced flow:fluid row writes one
// flow record per flow finished within the horizon, in completion order,
// as every other runner's are cut (CellTrace.CutFlows).
func TestTraceFluidRowRecords(t *testing.T) {
	const horizonMs = 5 // 20 flows of about 100 KB do not all fit in 5 ms
	s := optimalSpec(100, 20, []float64{20}, horizonMs)
	o := Opts{}
	e, err := compile(s, o)
	if err != nil {
		t.Fatal(err)
	}
	flows := e.cols[0].gen(o.BaseSeed(), 0, 0)
	comp, _ := fluid.MooreHodgson(flows, netsim.DefaultRate)
	want := 0
	for _, at := range comp {
		if at <= horizonMs*sim.Millisecond {
			want++
		}
	}
	if want == 0 || want == len(flows) {
		t.Fatalf("%d of %d flows finish within the horizon: the test needs some of each", want, len(flows))
	}

	tr := trace.New(true, false)
	if _, err := Run(s, Opts{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	cells := tr.Cells()
	if len(cells) != 1 {
		t.Fatalf("%d traced cells, want 1", len(cells))
	}
	recs := cells[0].Flows
	if len(recs) != want {
		t.Fatalf("%d flow records, want %d (the flows finished within the horizon)", len(recs), want)
	}
	for i, r := range recs {
		if !r.Done() || r.Finish != comp[r.ID] {
			t.Errorf("record %+v: want finished at %v", r, comp[r.ID])
		}
		if i > 0 && r.Finish < recs[i-1].Finish {
			t.Errorf("record %d finished at %v, before its predecessor at %v", i, r.Finish, recs[i-1].Finish)
		}
	}
}
