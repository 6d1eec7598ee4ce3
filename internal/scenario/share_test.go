package scenario

import (
	"strings"
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/obsv"
	"pdq/internal/topo"
	"pdq/internal/trace"
)

// burstSpec is Fig. 7's spec at a small scale: every row reads one
// PDQ(Full) run, through flow, link and drop metrics.
func burstSpec() *Spec {
	row := func(label, metric string, p map[string]float64) ProtoSpec {
		return ProtoSpec{Label: label, Runner: "PDQ(Full)", Metric: &MetricSpec{Name: metric, Params: p}}
	}
	return &Spec{
		Name: "burst", Desc: "d",
		Topology: TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": 6}},
		Workload: WorkloadSpec{Custom: "burst"},
		Protocols: []ProtoSpec{
			row("shorts", "flows-done", map[string]float64{"hi_kb": 1024}),
			row("util", "link-util", map[string]float64{"from_ms": 10, "hi_kb": 1024}),
			row("queue", "link-queue-max", map[string]float64{"stride_us": 200}),
			row("drops", "link-drops", nil),
		},
		HorizonMs: 400,
	}
}

// TestSharedRunGuards pins that a run several cells share runs under the
// scenario's guards: a tripped event budget or watchdog fails every cell
// that reads it, with the run's diagnostic, never the scenario, and never
// reaches the cache. The cut-short engine reports its counts once, to the
// first reader.
func TestSharedRunGuards(t *testing.T) {
	guards := []struct {
		name  string
		o     Opts
		want  string
		fired uint64 // events the cut-short engine reports
	}{
		{"event budget", Opts{MaxEvents: 1000}, "event budget exhausted after 1000 events", 1000},
		// Interrupted before its first event.
		{"watchdog", Opts{Watchdog: func(interrupt func()) func() { interrupt(); return func() {} }}, "run interrupted", 0},
	}
	conv := burstSpec()
	conv.Name, conv.Workload = "conv", WorkloadSpec{Custom: "equal-flows"}
	for _, g := range guards {
		for _, s := range []*Spec{burstSpec(), conv} {
			t.Run(g.name+"/"+s.Workload.Custom, func(t *testing.T) {
				cache, err := trace.NewCache(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					o := g.o
					o.Cache, o.Obs, o.Parallel = cache, obsv.New(nil), 4
					tab, err := Run(s, o)
					if err != nil {
						t.Fatalf("a guard trip is the scenario's error: %v", err)
					}
					if len(tab.Errors) != len(s.Protocols) {
						t.Fatalf("want every cell failed:\n%s", tab)
					}
					for _, e := range tab.Errors {
						if !strings.Contains(e.Msg, g.want) || e.Seed != DefaultSeed {
							t.Errorf("failed cell %+v, want %q at seed %d", e, g.want, DefaultSeed)
						}
					}
					snap := o.Obs.Runs()[0]
					if snap.Total != 4 || snap.Failed != 4 || snap.Done != 0 {
						t.Errorf("progress %+v, want four failed cells", snap)
					}
					if fired := o.Obs.Runtime.Snapshot().Fired; fired != g.fired {
						t.Errorf("the cut-short engine reported %d events, want %d", fired, g.fired)
					}
				}
				if cache.Hits() != 0 || cache.Misses() != 8 {
					t.Errorf("hits=%d misses=%d: a failed cell was cached", cache.Hits(), cache.Misses())
				}
			})
		}
	}
}

// TestSimulationsShareOnlyTheSameRun pins what cells share: rows naming
// the same runner with the same parameters on one column read one
// simulation, credited to the first of them in grid order; a row whose
// runner parameters differ runs its own; and every value is the one the
// row gives alone.
func TestSimulationsShareOnlyTheSameRun(t *testing.T) {
	max := &MetricSpec{Name: "fct-quantile", Params: map[string]float64{"q": 100}}
	rows := []ProtoSpec{
		{Label: "a max", Runner: "flow:PDQ", Metric: max},
		{Label: "a mean", Runner: "flow:PDQ"},
		{Label: "b max", Runner: "flow:PDQ", Params: map[string]float64{"aging": 16}, Metric: max},
		{Label: "ratio", Runner: "flow:RCP", Ref: "flow:PDQ", Metric: &MetricSpec{Name: "fct-ratio", Params: map[string]float64{"stat": 3}}},
	}
	spec := func(rows ...ProtoSpec) *Spec {
		return &Spec{
			Name:      "share",
			Topology:  TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": 8}},
			Workload:  WorkloadSpec{Custom: "long-vs-shorts"},
			Protocols: rows,
			Metric:    MetricSpec{Name: "mean-fct"},
			HorizonMs: 10000,
		}
	}
	o := Opts{Obs: obsv.New(nil), Parallel: 4}
	tab, err := Run(spec(rows...), o)
	if err != nil {
		t.Fatal(err)
	}
	done := map[string]uint64{}
	for _, c := range o.Obs.Runs()[0].Cells {
		done[c.Row] = c.FlowsDone
	}
	// "ratio" runs flow:RCP and reads the flow:PDQ run "a max" owns.
	if want := map[string]uint64{"a max": 101, "a mean": 0, "b max": 101, "ratio": 101}; !equalMaps(done, want) {
		t.Errorf("flows done by record %v, want %v", done, want)
	}
	for i, r := range rows {
		alone, err := Run(spec(r), Opts{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := tab.Rows[i].Vals[0], alone.Rows[0].Vals[0]; got != want {
			t.Errorf("row %s: %v, alone %v", r.Label, got, want)
		}
	}
	if a, b := tab.Get("a max", "value"), tab.Get("b max", "value"); a == b {
		t.Errorf("aging 0 and 16 give the same max FCT %v: the rows shared a run", a)
	}
}

func equalMaps(a, b map[string]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// TestLinkMetricsReadBeforeReset pins that a link metric reads its link
// as the run left it, before the topology is reset for the next run: the
// drops a TCP incast leaves on the receiver's shallow link, and its queue.
func TestLinkMetricsReadBeforeReset(t *testing.T) {
	s := &Spec{
		Name:     "incast",
		Topology: TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": 8}},
		Workload: WorkloadSpec{Pattern: PatternSpec{Name: "aggregation"}, Sizes: DistSpec{Name: "uniform-mean"}, Count: 16},
		Protocols: []ProtoSpec{
			{Label: "drops", Runner: "TCP", Metric: &MetricSpec{Name: "link-drops"}},
			{Label: "queue", Runner: "TCP", Metric: &MetricSpec{Name: "link-queue-max"}},
		},
		HorizonMs: 1000,
	}
	e, err := compile(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	build := e.cols[0].build
	e.cols[0].build = func(seed int64) *topo.Topology {
		tp := build(seed)
		for _, l := range tp.Net.Links() {
			l.QueueCap = 20 * netsim.MTU
		}
		return tp
	}
	var drops uint64
	e.inspect = func(tp *topo.Topology) { drops = tp.Hosts[len(tp.Hosts)-1].Access.Peer.Drops() }
	tab := e.run(Opts{Parallel: 1})
	if got := tab.Get("drops", "value"); drops == 0 || got != float64(drops) {
		t.Errorf("link-drops %v, the link dropped %d", got, drops)
	}
	if q := tab.Get("queue", "value"); !(q > 1) {
		t.Errorf("link-queue-max %v packets under an incast that drops", q)
	}
}
