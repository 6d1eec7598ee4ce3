package obsv

import (
	"bytes"
	"encoding/json"
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

// TestRuntimeMerge pins Runtime as a read of the finished records: counts
// add over every record of every run, and the queue mark is the highest.
func TestRuntimeMerge(t *testing.T) {
	o := New(nil)
	st := EngineStats{}
	st.Scheduled.Add(10)
	st.Fired.Add(8)
	st.Cancelled.Add(1)
	st.Refilled.Add(6)
	st.QueueHWM.Observe(42)
	o.StartRun("a").CellEnd(0, Cell{Engine: st})
	next := EngineStats{}
	next.Scheduled.Add(5)
	next.Fired.Add(5)
	next.Refilled.Add(3)
	next.QueueHWM.Observe(17) // below current mark: no change
	b := o.StartRun("b")
	b.CellEnd(0, Cell{Engine: next, Err: "failed cells count too"})
	b.CellEnd(0, Cell{Cached: true})

	s := o.Runtime.Snapshot()
	if s.Scheduled != 15 || s.Fired != 13 || s.Cancelled != 1 || s.Refilled != 9 {
		t.Errorf("merged = %d/%d/%d/%d, want 15/13/1/9", s.Scheduled, s.Fired, s.Cancelled, s.Refilled)
	}
	if s.QueueHWM != 42 {
		t.Errorf("queueHWM = %d, want 42", s.QueueHWM)
	}
}

func TestRuntimeNilSafe(t *testing.T) {
	var rt *Runtime
	if s := rt.Snapshot(); s.Scheduled != 0 {
		t.Errorf("nil runtime snapshot = %+v", s)
	}
	if s := New(nil).Runtime.Snapshot(); s != (RuntimeSnapshot{}) {
		t.Errorf("runtime of an observer with no runs = %+v", s)
	}
}

func TestSweepStatsLifecycle(t *testing.T) {
	clk := &fakeClock{step: 1e9} // 1s per read
	o := New(clk.Clock)
	s := o.StartRun("fig3a")
	s.AddTotal(4)

	for i := 0; i < 4; i++ {
		start := s.CellStart()
		c := Cell{Cached: i == 1, Probes: uint64(1 + i/3)}
		if i%2 == 0 {
			c.Decided = 1
		}
		if i == 3 {
			c.Err, c.Decided = "boom", 1
		}
		s.CellEnd(start, c)
	}
	s.Finish()

	snap := s.Snapshot()
	if snap.Done != 3 || snap.Failed != 1 || snap.Cached != 1 || snap.Total != 4 {
		t.Fatalf("snapshot = %+v", snap)
	}
	if snap.Probes != 5 || snap.Decided != 3 {
		t.Errorf("probes %d, decided %d, want 5 and 3", snap.Probes, snap.Decided)
	}
	if len(snap.Cells) != 4 || snap.Cells[3].Err != "boom" || snap.Cells[0].WallNs != 1e9 {
		t.Errorf("records = %+v, want four in finishing order, each 1 s", snap.Cells)
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
		if h.Count() != 4 || h.Sum() != 4 {
			t.Errorf("latency samples = %d summing to %g s, want 4 and 4", h.Count(), h.Sum())
		}
	})
}

func TestSweepStatsNilClock(t *testing.T) {
	o := New(nil)
	s := o.StartRun("quick")
	s.AddTotal(2)
	s.CellEnd(s.CellStart(), Cell{})
	s.CellEnd(s.CellStart(), Cell{})
	s.Finish()
	snap := s.Snapshot()
	if snap.Done != 2 || snap.ElapsedMs != 0 || snap.CellsPerSec != 0 || snap.Cells[0].WallNs != 0 {
		t.Errorf("nil-clock snapshot = %+v", snap)
	}
	s.CellSeconds(func(h *Histogram) {
		if h.Count() != 0 {
			t.Errorf("nil clock: %d latency samples, want none", h.Count())
		}
	})
}

func TestNilObserverAndStats(t *testing.T) {
	var o *Observer
	s := o.StartRun("x")
	s.AddTotal(3)
	s.CellEnd(s.CellStart(), Cell{Cached: true, Probes: 1})
	s.Finish()
	if got := o.Runs(); got != nil {
		t.Errorf("nil observer runs = %v", got)
	}
	var buf bytes.Buffer
	if err := o.WriteProm(&buf); err != nil || buf.Len() != 0 {
		t.Errorf("nil observer prom = %q, %v", buf.String(), err)
	}
}

// TestPromExposition pins the full /metrics bytes: every family's HELP and
// TYPE lines, the family order, the per-run label sets in start order, the
// histogram block and the number formatting. The clock only moves when the
// test moves it, so no value depends on how often the writer reads it.
func TestPromExposition(t *testing.T) {
	clk := &fakeClock{now: 1e9}
	o := New(clk.Clock)
	var st EngineStats
	st.Scheduled.Add(100)
	st.Fired.Add(90)
	st.Cancelled.Add(3)
	st.Refilled.Add(70)
	st.QueueHWM.Observe(12)
	s := o.StartRun("fig3a")
	s.AddTotal(3)
	start := s.CellStart()
	clk.now += 4e6
	s.CellEnd(start, Cell{Engine: st, Probes: 1, Decided: 1})
	start = s.CellStart()
	clk.now += 25e7
	s.CellEnd(start, Cell{Err: "boom", Probes: 2, Decided: 1})
	s.CellStart() // still running
	w := o.StartRun("fig10")
	w.AddTotal(1)
	start = w.CellStart()
	w.CellEnd(start, Cell{Cached: true})
	clk.now += 15e8

	var buf bytes.Buffer
	if err := o.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# HELP pdq_engine_events_scheduled_total Events scheduled across all engines.
# TYPE pdq_engine_events_scheduled_total counter
pdq_engine_events_scheduled_total 100
# HELP pdq_engine_events_fired_total Events fired across all engines.
# TYPE pdq_engine_events_fired_total counter
pdq_engine_events_fired_total 90
# HELP pdq_engine_events_cancelled_total Events cancelled before firing.
# TYPE pdq_engine_events_cancelled_total counter
pdq_engine_events_cancelled_total 3
# HELP pdq_engine_events_refilled_total Schedules that replaced the firing event at the heap root instead of paying a pop and a push.
# TYPE pdq_engine_events_refilled_total counter
pdq_engine_events_refilled_total 70
# HELP pdq_engine_queue_highwater High-water mark of pending events in any engine: about busy links plus armed timers.
# TYPE pdq_engine_queue_highwater gauge
pdq_engine_queue_highwater 12
# HELP pdq_sweep_cells_total Cells announced for the sweep.
# TYPE pdq_sweep_cells_total counter
pdq_sweep_cells_total{run="fig3a"} 3
pdq_sweep_cells_total{run="fig10"} 1
# HELP pdq_sweep_cells_done_total Cells finished successfully (includes cached).
# TYPE pdq_sweep_cells_done_total counter
pdq_sweep_cells_done_total{run="fig3a"} 1
pdq_sweep_cells_done_total{run="fig10"} 1
# HELP pdq_sweep_cells_failed_total Cells finished with an error or panic.
# TYPE pdq_sweep_cells_failed_total counter
pdq_sweep_cells_failed_total{run="fig3a"} 1
pdq_sweep_cells_failed_total{run="fig10"} 0
# HELP pdq_sweep_cells_cached_total Cells served from the result cache.
# TYPE pdq_sweep_cells_cached_total counter
pdq_sweep_cells_cached_total{run="fig3a"} 0
pdq_sweep_cells_cached_total{run="fig10"} 1
# HELP pdq_sweep_probes_total Search-probe simulations run (max-flows/max-rate cells).
# TYPE pdq_sweep_probes_total counter
pdq_sweep_probes_total{run="fig3a"} 3
pdq_sweep_probes_total{run="fig10"} 0
# HELP pdq_sweep_probes_decided_total Search probes stopped at their verdict, short of the horizon.
# TYPE pdq_sweep_probes_decided_total counter
pdq_sweep_probes_decided_total{run="fig3a"} 2
pdq_sweep_probes_decided_total{run="fig10"} 0
# HELP pdq_sweep_cells_running Cells currently executing.
# TYPE pdq_sweep_cells_running gauge
pdq_sweep_cells_running{run="fig3a"} 1
pdq_sweep_cells_running{run="fig10"} 0
# HELP pdq_sweep_cell_seconds Per-cell wall time.
# TYPE pdq_sweep_cell_seconds histogram
pdq_sweep_cell_seconds_bucket{run="fig3a",le="0.001"} 0
pdq_sweep_cell_seconds_bucket{run="fig3a",le="0.005"} 1
pdq_sweep_cell_seconds_bucket{run="fig3a",le="0.01"} 1
pdq_sweep_cell_seconds_bucket{run="fig3a",le="0.05"} 1
pdq_sweep_cell_seconds_bucket{run="fig3a",le="0.1"} 1
pdq_sweep_cell_seconds_bucket{run="fig3a",le="0.5"} 2
pdq_sweep_cell_seconds_bucket{run="fig3a",le="1"} 2
pdq_sweep_cell_seconds_bucket{run="fig3a",le="5"} 2
pdq_sweep_cell_seconds_bucket{run="fig3a",le="10"} 2
pdq_sweep_cell_seconds_bucket{run="fig3a",le="30"} 2
pdq_sweep_cell_seconds_bucket{run="fig3a",le="60"} 2
pdq_sweep_cell_seconds_bucket{run="fig3a",le="120"} 2
pdq_sweep_cell_seconds_bucket{run="fig3a",le="300"} 2
pdq_sweep_cell_seconds_bucket{run="fig3a",le="+Inf"} 2
pdq_sweep_cell_seconds_sum{run="fig3a"} 0.254
pdq_sweep_cell_seconds_count{run="fig3a"} 2
pdq_sweep_cell_seconds_bucket{run="fig10",le="0.001"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="0.005"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="0.01"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="0.05"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="0.1"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="0.5"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="1"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="5"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="10"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="30"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="60"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="120"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="300"} 1
pdq_sweep_cell_seconds_bucket{run="fig10",le="+Inf"} 1
pdq_sweep_cell_seconds_sum{run="fig10"} 0
pdq_sweep_cell_seconds_count{run="fig10"} 1
# HELP pdq_uptime_seconds Wall seconds since the observer was created.
# TYPE pdq_uptime_seconds gauge
pdq_uptime_seconds 1.754
`
	if got := buf.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

func TestLabelEscaping(t *testing.T) {
	o := New(nil)
	o.StartRun("a\"b\\c\nd")
	var buf bytes.Buffer
	if err := o.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	want := "\npdq_sweep_cells_total{run=\"a\\\"b\\\\c\\nd\"} 0\n"
	if !strings.Contains(buf.String(), want) {
		t.Errorf("escaped label line %q missing from\n%s", want, buf.String())
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
	s.CellEnd(start, Cell{})
	s.CellEnd(start, Cell{})
	p.Tick()

	clk.now = 4e9
	s.CellEnd(start, Cell{Cached: true})
	s.CellEnd(start, Cell{Err: "boom"})
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
	s.CellEnd(0, Cell{Cached: true})
	s.CellEnd(0, Cell{})
	s.CellEnd(0, Cell{Err: "boom"})
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
	c := Cell{Row: "PDQ", Col: "16", Rep: 1, Seed: 7, Probes: 3, Decided: 2, FlowsDone: 5, FlowsTerminated: 1}
	c.Engine.Scheduled.Add(9)
	c.Engine.Fired.Add(8)
	c.Engine.QueueHWM.Observe(4)
	s.CellEnd(s.CellStart(), c)
	var buf bytes.Buffer
	if err := o.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{`"uptime_seconds"`, `"runtime"`, `"runs"`, `"fig10"`, `"cells_done": 1`, `"cells": [`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON snapshot missing %q\n%s", want, out)
		}
	}
	// A record's counters are plain numbers under RuntimeSnapshot's names.
	rec, err := json.Marshal(o.Runs()[0].Cells[0])
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"row":"PDQ","col":"16","rep":1,"seed":7,"wall_ns":1000000000,"probes":3,"probes_decided":2,` +
		`"flows_done":5,"flows_terminated":1,"engine":{"events_scheduled":9,"events_fired":8,"events_cancelled":0,` +
		`"events_refilled":0,"queue_highwater":4}}`
	if string(rec) != want {
		t.Errorf("record JSON\n got %s\nwant %s", rec, want)
	}
}

// TestRouteEndpoints pins what the router serves without a transport:
// each path's content type and body, every runtime/pprof profile by
// name (gzipped protobuf, or text at ?debug=N), and no endpoint for any
// other path.
func TestRouteEndpoints(t *testing.T) {
	o := New(nil)
	s := o.StartRun("smoke")
	s.AddTotal(1)
	s.CellEnd(s.CellStart(), Cell{})

	get := func(o *Observer, path string, query map[string]string) (string, string) {
		t.Helper()
		e, ok := o.Route(path, query)
		if !ok {
			t.Fatalf("Route(%q, %v): no endpoint", path, query)
		}
		var buf bytes.Buffer
		if err := e.Write(&buf); err != nil {
			t.Fatalf("Route(%q, %v): %v", path, query, err)
		}
		return e.ContentType, buf.String()
	}
	gzipped := string([]byte{0x1f, 0x8b})
	for _, c := range []struct {
		path  string
		query map[string]string
		ctype string
		want  string
	}{
		{"/metrics", nil, "text/plain; version=0.0.4; charset=utf-8", "pdq_sweep_cells_total"},
		{"/runs", nil, "application/json", `"cells_done": 1`},
		{"/metrics.json", nil, "application/json", `"runtime"`},
		{"/debug/pprof/heap", nil, ContentBinary, gzipped},
		{"/debug/pprof/allocs", map[string]string{"debug": "0"}, ContentBinary, gzipped},
		{"/debug/pprof/heap", map[string]string{"debug": "1", "gc": "1"}, ContentText, "heap profile: "},
		{"/debug/pprof/goroutine", map[string]string{"debug": "2"}, ContentText, "goroutine "},
	} {
		ctype, got := get(o, c.path, c.query)
		if ctype != c.ctype || !strings.Contains(got, c.want) {
			t.Errorf("%s %v: %q, %.60q; want %q holding %q", c.path, c.query, ctype, got, c.ctype, c.want)
		}
	}
	if _, got := get(New(nil), "/runs", nil); got != "[]\n" {
		t.Errorf("/runs before any run: %q, want []", got)
	}
	for _, path := range []string{"/", "/metric", "/metrics/", "/debug/pprof/", "/debug/pprof/nosuch",
		"/debug/pprof/profile", "/debug/pprof/symbol", "debug/pprof/heap"} {
		if _, ok := o.Route(path, nil); ok {
			t.Errorf("Route(%q) served; want no endpoint", path)
		}
	}
}

// TestConcurrentAggregation exercises the aggregation points from many
// goroutines under -race: sweep workers ending cells with their records,
// and a scraper reading exposition output and the records.
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
				c := Cell{Cached: i%5 == 0}
				if i%7 == 0 {
					c.Err = "boom"
				}
				c.Engine.Scheduled.Add(10)
				c.Engine.Fired.Add(10)
				c.Engine.QueueHWM.Observe(int64(w*100 + i))
				s.CellEnd(start, c)
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
			o.Runtime.Snapshot()
			if err := o.WriteJSON(&buf); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	s.Finish()

	snap := s.Snapshot()
	if snap.Done+snap.Failed != workers*cells {
		t.Errorf("done+failed = %d, want %d", snap.Done+snap.Failed, workers*cells)
	}
	rs := o.Runtime.Snapshot()
	if rs.Scheduled != workers*cells*10 || rs.QueueHWM != (workers-1)*100+cells-1 {
		t.Errorf("scheduled = %d, queue mark %d, want %d and %d", rs.Scheduled, rs.QueueHWM, workers*cells*10, (workers-1)*100+cells-1)
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
