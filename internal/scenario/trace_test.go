package scenario

import (
	"strings"
	"testing"

	"pdq/internal/sim"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

// tracedSpec is a small two-protocol packet-level grid used by the
// telemetry tests.
func tracedSpec() *Spec {
	return &Spec{
		Name:     "traced",
		Topology: TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": 4}},
		Workload: WorkloadSpec{
			Pattern:        PatternSpec{Name: "aggregation"},
			Sizes:          DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 50}},
			MeanDeadlineMs: 20,
			Count:          4,
		},
		Protocols: []ProtoSpec{{Runner: "PDQ(Full)"}, {Runner: "TCP"}},
		Metric:    MetricSpec{Name: "app-throughput"},
		HorizonMs: 100,
	}
}

func TestTraceCapturesFlowRecordsAndProbes(t *testing.T) {
	tr := trace.New(true, true)
	tab, err := Run(tracedSpec(), Opts{Trace: tr, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	cells := tr.Cells()
	if len(cells) != 2 {
		t.Fatalf("got %d traced cells, want 2 (one per protocol row)", len(cells))
	}
	for _, ct := range cells {
		if len(ct.Flows) == 0 {
			t.Fatalf("cell %+v captured no flow records", ct.Cell)
		}
		for _, r := range ct.Flows {
			if r.Size <= 0 || r.Src == r.Dst {
				t.Fatalf("nonsense record %+v", r)
			}
			if r.Finish >= 0 && r.BytesAcked != r.Size {
				t.Fatalf("finished flow %d acked %d of %d bytes", r.ID, r.BytesAcked, r.Size)
			}
			if r.Deadline == 0 {
				t.Fatalf("flow %d lost its deadline in the record", r.ID)
			}
		}
		if len(ct.Probes) == 0 {
			t.Fatalf("cell %+v captured no probe series", ct.Cell)
		}
		sawActive, sawUtil := false, false
		for _, s := range ct.Probes {
			if len(s.Vals) == 0 {
				t.Fatalf("probe %q has no samples", s.Name)
			}
			switch {
			case s.Name == "active-flows":
				sawActive = true
			case strings.HasPrefix(s.Name, "util:"):
				sawUtil = true
				// Bytes are credited when a packet finishes serializing,
				// so one stride can exceed 100% by up to ~an MTU's worth
				// (12% at 1 Gbps over 100 µs).
				for _, v := range s.Vals {
					if v < 0 || v > 115 {
						t.Fatalf("utilization sample %g out of range in %q", v, s.Name)
					}
				}
			}
		}
		if !sawActive || !sawUtil {
			t.Fatalf("missing probe series (active=%t util=%t)", sawActive, sawUtil)
		}
	}
	// Tracing must not perturb results: the same spec untraced produces
	// the identical table.
	plain := MustRun(tracedSpec(), Opts{})
	if plain.String() != tab.String() {
		t.Errorf("traced run diverged from untraced run:\n%s\nvs\n%s", tab, plain)
	}
}

func TestTraceFlowLevelRecords(t *testing.T) {
	s := minimalSpec()
	tr := trace.New(true, false)
	if _, err := Run(s, Opts{Trace: tr}); err != nil {
		t.Fatal(err)
	}
	cells := tr.Cells()
	if len(cells) != 1 || len(cells[0].Flows) == 0 {
		t.Fatalf("flow-level run captured no records: %d cells", len(cells))
	}
}

func TestMetricAxisSweepsCDF(t *testing.T) {
	s := tracedSpec()
	s.Metric = MetricSpec{Name: "fct-cdf"}
	s.Sweep = &SweepSpec{Axis: "metric:at_ms", Values: []float64{1, 10, 1000}}
	tab := MustRun(s, Opts{})

	// A metric-only sweep shares one simulation per row across all
	// columns: tracing it records one cell per protocol (Col "*"), not
	// one per column.
	tr := trace.New(true, false)
	traced := MustRun(s, Opts{Trace: tr, Parallel: 4})
	if traced.String() != tab.String() {
		t.Fatalf("traced metric sweep diverged:\n%s\nvs\n%s", traced, tab)
	}
	cells := tr.Cells()
	if len(cells) != len(s.Protocols) {
		t.Fatalf("metric-only sweep ran %d simulations, want %d (one per row)", len(cells), len(s.Protocols))
	}
	for _, ct := range cells {
		if ct.Cell.Col != "*" {
			t.Fatalf("shared run tagged %q, want Col \"*\"", ct.Cell.Col)
		}
	}

	for _, row := range tab.Rows {
		prev := -1.0
		for i, v := range row.Vals {
			if v < prev {
				t.Fatalf("%s: CDF not monotone at col %d: %v", row.Label, i, row.Vals)
			}
			prev = v
		}
		if last := row.Vals[len(row.Vals)-1]; last != 1 {
			t.Errorf("%s: CDF at 1000 ms = %g, want 1 (every flow done)", row.Label, last)
		}
	}
}

// Direct table-driven checks of the distribution metrics over synthetic
// result sets.
func TestDistributionMetrics(t *testing.T) {
	ms := func(x float64) sim.Time { return sim.Time(x * float64(sim.Millisecond)) }
	res := func(size int64, startMs, finishMs, deadlineMs float64, term bool) workload.Result {
		r := workload.Result{
			Flow:       workload.Flow{ID: uint64(size), Size: size, Start: ms(startMs), Deadline: ms(deadlineMs)},
			Finish:     ms(finishMs),
			Terminated: term,
		}
		if finishMs < 0 {
			r.Finish = -1
		}
		return r
	}
	rs := []workload.Result{
		res(10<<10, 0, 10, 20, false), // 10 KB, FCT 10 ms, met
		res(20<<10, 0, 30, 20, false), // 20 KB, FCT 30 ms, missed
		res(100<<10, 0, 50, 0, false), // 100 KB, FCT 50 ms, no deadline
		res(200<<10, 0, -1, 20, true), // 200 KB, terminated
	}
	cases := []struct {
		metric string
		params map[string]float64
		want   float64
	}{
		// Completed FCTs (ms): 10, 30, 50 → median 30, interpolated tails.
		{"fct-quantile", map[string]float64{"q": 50, "ms": 1}, 30},
		{"fct-quantile", map[string]float64{"q": 0, "ms": 1}, 10},
		{"fct-quantile", map[string]float64{"q": 95, "ms": 1}, 48},
		{"fct-quantile", map[string]float64{"q": 99, "ms": 1}, 49.6},
		{"fct-cdf", map[string]float64{"at_ms": 30}, 2.0 / 3},
		{"fct-cdf", map[string]float64{"at_ms": 5}, 0},
		{"fct-cdf", map[string]float64{"at_ms": 50}, 1},
		// Byte-weighted: 10 of 130 KB done by 10 ms, 30 of 130 by 30 ms.
		{"fct-cdf", map[string]float64{"at_ms": 30, "weight_by_size": 1}, 30.0 / 130},
		// Deadline flows: 10 KB met, 20 KB missed, 200 KB terminated.
		{"miss-by-size-bin", nil, 200.0 / 3},
		{"miss-by-size-bin", map[string]float64{"hi_kb": 15}, 0},
		{"miss-by-size-bin", map[string]float64{"lo_kb": 15, "hi_kb": 50}, 100},
		{"miss-by-size-bin", map[string]float64{"lo_kb": 1 << 20}, 0}, // empty bin
		// Slowdowns at 1 Gbps: ideal(10 KB)=81.92 µs → 10 ms/81.92 µs etc.
		{"slowdown-mean", nil, (10.0/0.08192 + 30.0/0.16384 + 50.0/0.8192) / 3},
	}
	for _, c := range cases {
		t.Run(c.metric, func(t *testing.T) {
			e, p, err := metrics.Resolve(c.metric, c.params)
			if err != nil {
				t.Fatal(err)
			}
			got := e.Fn(rs, nil, p)
			if diff := got - c.want; diff > 1e-9 || diff < -1e-9 {
				t.Fatalf("%s(%v) = %v, want %v", c.metric, c.params, got, c.want)
			}
		})
	}
}

func TestCacheHitsSkipRecompute(t *testing.T) {
	cache, err := trace.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := minimalSpec()
	cold := MustRun(s, Opts{Cache: cache}).String()
	if cache.Hits() != 0 || cache.Misses() == 0 {
		t.Fatalf("cold run: hits=%d misses=%d", cache.Hits(), cache.Misses())
	}
	misses := cache.Misses()
	warm := MustRun(s, Opts{Cache: cache}).String()
	if warm != cold {
		t.Fatalf("cache hit diverged from recompute:\n%s\nvs\n%s", warm, cold)
	}
	if cache.Hits() != misses || cache.Misses() != misses {
		t.Fatalf("warm run: hits=%d misses=%d, want %d hits and no new misses", cache.Hits(), cache.Misses(), misses)
	}
}

// Any change to the resolved cell material must change the key: a warm
// cache serves zero hits to a mutated spec.
func TestCacheSpecMutationInvalidates(t *testing.T) {
	mutations := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"horizon", func(s *Spec) { s.HorizonMs++ }},
		{"workload count", func(s *Spec) { s.Workload.Count++ }},
		{"sizes param", func(s *Spec) {
			s.Workload.Sizes.Params = map[string]float64{"mean_kb": 123}
		}},
		{"runner", func(s *Spec) { s.Protocols[0].Runner = "flow:D3" }},
		{"metric param", func(s *Spec) {
			s.Metric.Params = map[string]float64{"ms": 1}
		}},
	}
	for _, m := range mutations {
		t.Run(m.name, func(t *testing.T) {
			cache, err := trace.NewCache(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			MustRun(minimalSpec(), Opts{Cache: cache})
			s := minimalSpec()
			m.mutate(s)
			MustRun(s, Opts{Cache: cache})
			if cache.Hits() != 0 {
				t.Fatalf("mutated spec %q served %d stale cache hits", m.name, cache.Hits())
			}
		})
	}
	// Sanity: the seed is key material too.
	cache, err := trace.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	MustRun(minimalSpec(), Opts{Cache: cache})
	MustRun(minimalSpec(), Opts{Cache: cache, Seed: 99})
	if cache.Hits() != 0 {
		t.Fatalf("different seed served %d stale cache hits", cache.Hits())
	}
}

// A traced run bypasses the cache (a hit would skip the simulation that
// emits the records) and still records every cell.
func TestTraceDisablesCache(t *testing.T) {
	cache, err := trace.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	MustRun(minimalSpec(), Opts{Cache: cache})
	misses := cache.Misses()
	tr := trace.New(true, false)
	MustRun(minimalSpec(), Opts{Cache: cache, Trace: tr})
	if cache.Hits() != 0 || cache.Misses() != misses {
		t.Fatalf("traced run touched the cache: hits=%d misses=%d", cache.Hits(), cache.Misses())
	}
	if len(tr.Cells()) == 0 {
		t.Fatal("traced run recorded nothing")
	}
}
