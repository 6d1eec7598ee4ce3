package obsv

import (
	"encoding/json"
	"io"
	"sync"
)

// Observer is the root of the observability plane for one process: the
// Runtime aggregate, the per-run SweepStats instances, and the metric
// registry that the export surfaces (Prometheus text, JSON snapshot,
// /runs) read from. cmd/pdqsim builds one with the wall clock; tests
// build them with fakes. A nil *Observer is valid everywhere and means
// "observability off".
type Observer struct {
	Clock   Clock // nil disables every timing-derived metric
	Runtime *Runtime

	mu    sync.Mutex
	runs  []*SweepStats
	reg   *Registry
	start int64 // clock() at New, for uptime
}

// New creates an Observer with the standard metric set registered.
// clock may be nil (counters only — no rates, durations or ETA).
func New(clock Clock) *Observer {
	o := &Observer{Clock: clock, Runtime: &Runtime{}, reg: NewRegistry()}
	if clock != nil {
		o.start = clock()
	}
	o.registerStandard()
	return o
}

// StartRun registers a new sweep run under name and returns its stats
// handle. Safe for concurrent use; nil Observer returns nil (and every
// SweepStats method tolerates a nil receiver).
func (o *Observer) StartRun(name string) *SweepStats {
	if o == nil {
		return nil
	}
	s := newSweepStats(name, o.Clock)
	o.mu.Lock()
	o.runs = append(o.runs, s)
	o.mu.Unlock()
	return s
}

// Runs snapshots every registered sweep run, in start order.
func (o *Observer) Runs() []SweepSnapshot {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	runs := make([]*SweepStats, len(o.runs))
	copy(runs, o.runs)
	o.mu.Unlock()
	out := make([]SweepSnapshot, len(runs))
	for i, r := range runs {
		out[i] = r.Snapshot()
	}
	return out
}

// UptimeSeconds reports wall seconds since New; 0 with a nil clock.
func (o *Observer) UptimeSeconds() float64 {
	if o == nil || o.Clock == nil {
		return 0
	}
	return float64(o.Clock()-o.start) / 1e9
}

// snapshot is the end-of-run JSON document written by -metrics-out and
// served (per-run) by /runs.
type snapshot struct {
	UptimeSeconds float64         `json:"uptime_seconds"`
	Runtime       RuntimeSnapshot `json:"runtime"`
	Runs          []SweepSnapshot `json:"runs"`
}

// WriteJSON writes the full observability snapshot as indented JSON:
// uptime, the Runtime aggregate and every sweep run.
func (o *Observer) WriteJSON(w io.Writer) error {
	if o == nil {
		_, err := io.WriteString(w, "{}\n")
		return err
	}
	doc := snapshot{
		UptimeSeconds: o.UptimeSeconds(),
		Runtime:       o.Runtime.Snapshot(),
		Runs:          o.Runs(),
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteProm writes every registered metric in the Prometheus text
// exposition format.
func (o *Observer) WriteProm(w io.Writer) error {
	if o == nil {
		return nil
	}
	return o.reg.WriteProm(w)
}

// Registry exposes the metric registry, for callers that register
// additional metrics (none in-tree yet; the service layer in ROADMAP
// item 4 will).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.reg
}

// registerStandard registers the built-in metric set against this
// observer's Runtime and run list. Collect callbacks read atomics (or
// take the run lock), so they are safe against live simulation.
func (o *Observer) registerStandard() {
	r := o.reg
	rt := o.Runtime
	counter := func(name, help string, v func(RuntimeSnapshot) uint64) {
		r.Register(Metric{Name: name, Help: help, Type: TypeCounter, Collect: func(w *promWriter) {
			w.Value(name, nil, float64(v(rt.Snapshot())))
		}})
	}
	counter("pdq_engine_events_scheduled_total", "Events scheduled across all engines.",
		func(s RuntimeSnapshot) uint64 { return s.Scheduled })
	counter("pdq_engine_events_fired_total", "Events fired across all engines.",
		func(s RuntimeSnapshot) uint64 { return s.Fired })
	counter("pdq_engine_events_cancelled_total", "Events cancelled before firing.",
		func(s RuntimeSnapshot) uint64 { return s.Cancelled })
	counter("pdq_engine_events_refilled_total", "Schedules that replaced the firing event at the heap root instead of paying a pop and a push.",
		func(s RuntimeSnapshot) uint64 { return s.Refilled })
	r.Register(Metric{Name: "pdq_engine_queue_highwater", Help: "High-water mark of pending events in any engine (heap depth or wheel occupancy): about busy links plus armed timers on the single engine, packets in flight plus timers when sharded.", Type: TypeGauge, Collect: func(w *promWriter) {
		w.Value("pdq_engine_queue_highwater", nil, float64(rt.Snapshot().QueueHWM))
	}})
	counter("pdq_shard_windows_total", "Barrier windows executed by shard groups.",
		func(s RuntimeSnapshot) uint64 { return s.Windows })
	counter("pdq_shard_idle_skips_total", "Idle windows fast-forwarded over by shard groups.",
		func(s RuntimeSnapshot) uint64 { return s.IdleSkips })
	counter("pdq_shard_handoffs_total", "Cross-shard event handoffs.",
		func(s RuntimeSnapshot) uint64 { return s.Handoffs })
	counter("pdq_shard_handoff_bytes_total", "Wire bytes carried by cross-shard handoffs.",
		func(s RuntimeSnapshot) uint64 { return s.HandoffBytes })
	r.Register(Metric{Name: "pdq_shards_active", Help: "Engines the most recently configured cell runs on (1 = single engine).", Type: TypeGauge, Collect: func(w *promWriter) {
		w.Value("pdq_shards_active", nil, float64(rt.Snapshot().ShardsActive))
	}})
	r.Register(Metric{Name: "pdq_shard_phase_seconds_total", Help: "Wall time spent in each shard barrier phase.", Type: TypeCounter, Collect: func(w *promWriter) {
		s := rt.Snapshot()
		for i, name := range PhaseNames {
			w.Value("pdq_shard_phase_seconds_total", []Label{{"phase", name}}, float64(s.PhaseNs[i])/1e9)
		}
	}})

	sweepCounter := func(name, help string, v func(SweepSnapshot) float64) {
		r.Register(Metric{Name: name, Help: help, Type: TypeCounter, Collect: func(w *promWriter) {
			for _, run := range o.Runs() {
				w.Value(name, []Label{{"run", run.Name}}, v(run))
			}
		}})
	}
	sweepCounter("pdq_sweep_cells_total", "Cells announced for the sweep.",
		func(s SweepSnapshot) float64 { return float64(s.Total) })
	sweepCounter("pdq_sweep_cells_done_total", "Cells finished successfully (includes cached).",
		func(s SweepSnapshot) float64 { return float64(s.Done) })
	sweepCounter("pdq_sweep_cells_failed_total", "Cells finished with an error or panic.",
		func(s SweepSnapshot) float64 { return float64(s.Failed) })
	sweepCounter("pdq_sweep_cells_cached_total", "Cells served from the result cache.",
		func(s SweepSnapshot) float64 { return float64(s.Cached) })
	sweepCounter("pdq_sweep_probes_total", "Search-probe simulations run (max-flows/max-rate cells).",
		func(s SweepSnapshot) float64 { return float64(s.Probes) })
	sweepCounter("pdq_sweep_probes_decided_total", "Search probes stopped at their verdict, short of the horizon.",
		func(s SweepSnapshot) float64 { return float64(s.Decided) })
	r.Register(Metric{Name: "pdq_sweep_cells_running", Help: "Cells currently executing.", Type: TypeGauge, Collect: func(w *promWriter) {
		for _, run := range o.Runs() {
			w.Value("pdq_sweep_cells_running", []Label{{"run", run.Name}}, float64(run.Running))
		}
	}})
	r.Register(Metric{Name: "pdq_sweep_cell_seconds", Help: "Per-cell wall time.", Type: TypeHistogram, Collect: func(w *promWriter) {
		o.mu.Lock()
		runs := make([]*SweepStats, len(o.runs))
		copy(runs, o.runs)
		o.mu.Unlock()
		for _, run := range runs {
			run.CellSeconds(func(h *Histogram) {
				w.Histogram("pdq_sweep_cell_seconds", []Label{{"run", run.Name}}, h)
			})
		}
	}})
	r.Register(Metric{Name: "pdq_uptime_seconds", Help: "Wall seconds since the observer was created.", Type: TypeGauge, Collect: func(w *promWriter) {
		w.Value("pdq_uptime_seconds", nil, o.UptimeSeconds())
	}})
}
