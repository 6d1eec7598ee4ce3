package obsv

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// fakeClock is a deterministic Clock for tests: every read advances
// wall time by step.
type fakeClock struct {
	now  int64
	step int64
}

func (c *fakeClock) Clock() int64 {
	c.now += c.step
	return c.now
}

func TestInstruments(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}

	var g Gauge
	g.Set(7)
	g.Set(-2)
	if g.Value() != -2 {
		t.Errorf("gauge = %d, want -2", g.Value())
	}

	var hw HighWater
	hw.Observe(3)
	hw.Observe(9)
	hw.Observe(5)
	if hw.Value() != 9 {
		t.Errorf("highwater = %d, want 9", hw.Value())
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]float64{1, 5, 10})
	for _, v := range []float64{0.5, 1, 3, 7, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if h.Sum() != 111.5 {
		t.Errorf("sum = %g, want 111.5", h.Sum())
	}
	// Cumulative counts: ≤1: 2 (0.5, 1 — bounds are inclusive), ≤5: 3,
	// ≤10: 4, +Inf: 5.
	for i, want := range []uint64{2, 3, 4, 5} {
		if got := h.Cumulative(i); got != want {
			t.Errorf("cumulative(%d) = %d, want %d", i, got, want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("non-ascending bounds did not panic")
		}
	}()
	NewHistogram([]float64{2, 1})
}

func TestRuntimeMerge(t *testing.T) {
	rt := &Runtime{}
	st := &EngineStats{}
	st.Scheduled.Add(10)
	st.Fired.Add(8)
	st.Cancelled.Add(1)
	st.Refilled.Add(6)
	st.QueueHWM.Observe(42)

	var prev EngineStats
	rt.MergeEngineSince(st, &prev)
	st.Scheduled.Add(5)
	st.Fired.Add(5)
	st.Refilled.Add(3)
	st.QueueHWM.Observe(17) // below current mark: no change
	rt.MergeEngineSince(st, &prev)

	s := rt.Snapshot()
	if s.Scheduled != 15 || s.Fired != 13 || s.Cancelled != 1 || s.Refilled != 9 {
		t.Errorf("merged = %d/%d/%d/%d, want 15/13/1/9", s.Scheduled, s.Fired, s.Cancelled, s.Refilled)
	}
	if s.QueueHWM != 42 {
		t.Errorf("queueHWM = %d, want 42", s.QueueHWM)
	}

	rt.AddWindows(3)
	rt.AddIdleSkips(2)
	rt.AddHandoffs(7, 7000)
	rt.AddPhase(PhaseSort, 5e6)
	rt.AddPhase(PhaseWindow, 15e6)
	s = rt.Snapshot()
	if s.Windows != 3 || s.IdleSkips != 2 || s.Handoffs != 7 || s.HandoffBytes != 7000 {
		t.Errorf("shard counters = %+v", s)
	}
	if s.PhaseSeconds["sort"] != 0.005 || s.PhaseSeconds["window"] != 0.015 {
		t.Errorf("phase seconds = %v", s.PhaseSeconds)
	}
}

func TestRuntimeNilSafe(t *testing.T) {
	var rt *Runtime
	rt.MergeEngine(&EngineStats{})
	rt.AddWindows(1)
	rt.AddIdleSkips(1)
	rt.AddHandoffs(1, 1)
	rt.AddPhase(PhaseSort, 1)
	rt.ObserveQueueHWM(1)
	if s := rt.Snapshot(); s.Scheduled != 0 {
		t.Errorf("nil runtime snapshot = %+v", s)
	}
}

func TestSweepStatsLifecycle(t *testing.T) {
	clk := &fakeClock{step: 1e9} // 1s per read
	o := New(clk.Clock)
	s := o.StartRun("fig3a")
	s.AddTotal(4)

	for i := 0; i < 4; i++ {
		start := s.CellStart()
		if i == 1 {
			s.CacheHit()
		}
		s.Probe(i%2 == 0)
		s.CellEnd(start, i == 3)
	}
	s.Probe(true)
	s.Finish()

	snap := s.Snapshot()
	if snap.Done != 3 || snap.Failed != 1 || snap.Cached != 1 || snap.Total != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Probes != 5 || snap.Decided != 3 {
		t.Errorf("probes %d, decided %d, want 5 and 3", snap.Probes, snap.Decided)
	}
	if snap.Running != 0 {
		t.Errorf("running = %d, want 0", snap.Running)
	}
	if snap.HitRatio != 1.0/3 {
		t.Errorf("hit ratio = %g, want 1/3", snap.HitRatio)
	}
	if !snap.Finished || snap.EtaMs != 0 {
		t.Errorf("finished=%v eta=%d, want true/0", snap.Finished, snap.EtaMs)
	}
	if snap.ElapsedMs <= 0 || snap.CellsPerSec <= 0 {
		t.Errorf("elapsed=%dms rate=%g, want positive", snap.ElapsedMs, snap.CellsPerSec)
	}
	s.CellSeconds(func(h *Histogram) {
		if h.Count() != 4 {
			t.Errorf("latency samples = %d, want 4", h.Count())
		}
	})
}

func TestSweepStatsNilClock(t *testing.T) {
	o := New(nil)
	s := o.StartRun("quick")
	s.AddTotal(2)
	s.CellEnd(s.CellStart(), false)
	s.CellEnd(s.CellStart(), false)
	s.Finish()
	snap := s.Snapshot()
	if snap.Done != 2 || snap.ElapsedMs != 0 || snap.CellsPerSec != 0 {
		t.Errorf("nil-clock snapshot = %+v", snap)
	}
}

func TestNilObserverAndStats(t *testing.T) {
	var o *Observer
	s := o.StartRun("x")
	s.AddTotal(3)
	s.CellEnd(s.CellStart(), false)
	s.CacheHit()
	s.Probe(true)
	s.Finish()
	if got := o.Runs(); got != nil {
		t.Errorf("nil observer runs = %v", got)
	}
	var buf bytes.Buffer
	if err := o.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil observer prom = %q, %v", buf.String(), err)
	}
}

func TestPromExposition(t *testing.T) {
	clk := &fakeClock{step: 1e9}
	o := New(clk.Clock)
	o.Runtime.MergeEngine(func() *EngineStats {
		st := &EngineStats{}
		st.Scheduled.Add(100)
		st.Fired.Add(90)
		st.Refilled.Add(70)
		st.QueueHWM.Observe(12)
		return st
	}())
	o.Runtime.AddHandoffs(4, 6000)
	o.Runtime.AddPhase(PhaseInject, 2e9)
	s := o.StartRun("fig3a")
	s.AddTotal(2)
	s.CellEnd(s.CellStart(), false)
	s.CellEnd(s.CellStart(), true)
	s.Probe(true)
	s.Probe(false)
	s.Probe(true)

	var buf bytes.Buffer
	if err := o.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP pdq_engine_events_scheduled_total",
		"# TYPE pdq_engine_events_scheduled_total counter",
		"pdq_engine_events_scheduled_total 100\n",
		"pdq_engine_events_fired_total 90\n",
		"# TYPE pdq_engine_events_refilled_total counter",
		"pdq_engine_events_refilled_total 70\n",
		"pdq_engine_queue_highwater 12\n",
		"pdq_shard_handoffs_total 4\n",
		"pdq_shard_handoff_bytes_total 6000\n",
		`pdq_shard_phase_seconds_total{phase="inject"} 2`,
		`pdq_sweep_cells_total{run="fig3a"} 2`,
		`pdq_sweep_cells_done_total{run="fig3a"} 1`,
		`pdq_sweep_cells_failed_total{run="fig3a"} 1`,
		`pdq_sweep_probes_total{run="fig3a"} 3`,
		`pdq_sweep_probes_decided_total{run="fig3a"} 2`,
		`pdq_sweep_cell_seconds_bucket{run="fig3a",le="+Inf"} 2`,
		`pdq_sweep_cell_seconds_count{run="fig3a"} 2`,
		"# TYPE pdq_sweep_cell_seconds histogram",
		"pdq_uptime_seconds ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n%s", want, out)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	m := Metric{Name: "x", Type: TypeGauge, Collect: func(*promWriter) {}}
	r.Register(m)
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r.Register(m)
}

func TestLabelEscaping(t *testing.T) {
	w := &promWriter{}
	w.Value("m", []Label{{"run", "a\"b\\c\nd"}}, 1)
	want := "m{run=\"a\\\"b\\\\c\\nd\"} 1\n"
	if got := w.b.String(); got != want {
		t.Errorf("escaped = %q, want %q", got, want)
	}
}

// TestProgressGolden drives the renderer with a fake clock and checks
// the exact stderr byte stream, carriage returns and padding included.
func TestProgressGolden(t *testing.T) {
	clk := &fakeClock{step: 0} // manual advance
	o := New(clk.Clock)
	var buf bytes.Buffer
	p := &Progress{W: &buf, Observer: o}

	s := o.StartRun("fig3a")
	s.AddTotal(4)
	p.Tick() // nothing announced-done yet, but totals exist → renders 0/4

	clk.now = 2e9 // 2s in
	start := int64(1e9)
	s.CellEnd(start, false)
	s.CellEnd(start, false)
	p.Tick()

	clk.now = 4e9
	s.CacheHit()
	s.CellEnd(start, false)
	s.CellEnd(start, true)
	s.Finish()
	p.Done()

	got := buf.String()
	want := "\rfig3a: 0/4 cells" +
		"\rfig3a: 2/4 cells, 1.0 cells/s, ETA 2.0s" +
		"\rfig3a: 4/4 cells, 1 failed, 1 cached, 1.0 cells/s, done in 4.0s\n"
	if got != want {
		t.Errorf("progress stream:\n got %q\nwant %q", got, want)
	}
}

// TestProgressPadding checks that a shrinking line is blanked out.
func TestProgressPadding(t *testing.T) {
	long := SweepSnapshot{Name: "abc", Total: 10, Done: 2, Failed: 1, Cached: 1}
	short := SweepSnapshot{Name: "abc", Total: 10, Done: 3}
	lLong := RenderProgressLine([]SweepSnapshot{long})
	lShort := RenderProgressLine([]SweepSnapshot{short})
	if len(lShort) >= len(lLong) {
		t.Fatalf("test premise broken: %q not shorter than %q", lShort, lLong)
	}
	var buf bytes.Buffer
	o := New(nil)
	s := o.StartRun("abc")
	s.AddTotal(10)
	p := &Progress{W: &buf, Observer: o}
	s.CacheHit()
	s.CellEnd(0, false)
	s.CellEnd(0, false)
	s.CellEnd(0, true)
	p.Tick()
	first := buf.Len()
	if first == 0 {
		t.Fatal("no first render")
	}
	// A subsequent shorter render must pad to the previous length.
	p.render()
	second := buf.Len() - first
	if second != first {
		t.Errorf("second render %d bytes, want %d (padded)", second, first)
	}
}

func TestWriteJSON(t *testing.T) {
	clk := &fakeClock{step: 1e9}
	o := New(clk.Clock)
	s := o.StartRun("fig10")
	s.AddTotal(1)
	s.CellEnd(s.CellStart(), false)
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"uptime_seconds"`, `"runtime"`, `"runs"`, `"fig10"`, `"cells_done": 1`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON snapshot missing %q\n%s", want, out)
		}
	}
}

func TestHandlerEndpoints(t *testing.T) {
	o := New(nil)
	s := o.StartRun("smoke")
	s.AddTotal(1)
	s.CellEnd(s.CellStart(), false)
	srv := httptest.NewServer(Handler(o))
	defer srv.Close()

	for path, want := range map[string]string{
		"/metrics":      "pdq_sweep_cells_total",
		"/runs":         `"cells_done": 1`,
		"/metrics.json": `"runtime"`,
	} {
		res, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(res.Body); err != nil {
			t.Fatal(err)
		}
		res.Body.Close()
		if res.StatusCode != 200 {
			t.Errorf("GET %s: status %d", path, res.StatusCode)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("GET %s: missing %q in %q", path, want, buf.String())
		}
	}
}

// TestConcurrentAggregation exercises the aggregation points from many
// goroutines under -race: sweep workers ending cells, shard drivers
// merging engine deltas, and a scraper reading exposition output.
func TestConcurrentAggregation(t *testing.T) {
	clk := &fakeClock{step: 1}
	var mu sync.Mutex
	lockedClock := func() int64 {
		mu.Lock()
		defer mu.Unlock()
		return clk.Clock()
	}
	o := New(lockedClock)
	s := o.StartRun("race")
	const workers, cells = 8, 50
	s.AddTotal(workers * cells)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < cells; i++ {
				start := s.CellStart()
				if i%5 == 0 {
					s.CacheHit()
				}
				st := &EngineStats{}
				st.Scheduled.Add(10)
				st.Fired.Add(10)
				st.QueueHWM.Observe(int64(w*100 + i))
				o.Runtime.MergeEngine(st)
				o.Runtime.AddHandoffs(1, 100)
				s.CellEnd(start, i%7 == 0)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 20; i++ {
			var buf bytes.Buffer
			if err := o.WriteProm(&buf); err != nil {
				t.Error(err)
			}
			o.Runs()
		}
	}()
	wg.Wait()
	s.Finish()

	snap := s.Snapshot()
	if snap.Done+snap.Failed != workers*cells {
		t.Errorf("done+failed = %d, want %d", snap.Done+snap.Failed, workers*cells)
	}
	rs := o.Runtime.Snapshot()
	if rs.Scheduled != workers*cells*10 {
		t.Errorf("scheduled = %d, want %d", rs.Scheduled, workers*cells*10)
	}
	if rs.Handoffs != workers*cells || rs.HandoffBytes != workers*cells*100 {
		t.Errorf("handoffs = %d/%d bytes", rs.Handoffs, rs.HandoffBytes)
	}
}

func TestFmtDuration(t *testing.T) {
	cases := map[int64]string{
		500:       "500ms",
		1500:      "1.5s",
		65_000:    "1m05s",
		3_900_000: "1h05m",
	}
	for ms, want := range cases {
		if got := fmtDuration(ms); got != want {
			t.Errorf("fmtDuration(%d) = %q, want %q", ms, got, want)
		}
	}
}
