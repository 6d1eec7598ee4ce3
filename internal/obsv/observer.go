package obsv

import (
	"encoding/json"
	"io"
	"sync"
)

// Observer is the root of the observability plane for one process: the
// per-run SweepStats instances, which keep the runs' cell records, and the
// Runtime sum over those records, which the export surfaces (Prometheus
// text, JSON snapshot, /runs) read from. cmd/pdqsim
// builds one with the wall clock; tests build them with fakes. A nil
// *Observer is valid everywhere and means "observability off".
type Observer struct {
	Clock   Clock // nil disables every timing-derived metric
	Runtime *Runtime

	mu    sync.Mutex
	runs  []*SweepStats
	start int64 // clock() at New, for uptime
}

// New creates an Observer. clock may be nil (counters only — no rates,
// durations or ETA).
func New(clock Clock) *Observer {
	o := &Observer{Clock: clock}
	o.Runtime = &Runtime{o}
	if clock != nil {
		o.start = clock()
	}
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
	runs := o.sweeps()
	out := make([]SweepSnapshot, len(runs))
	for i, r := range runs {
		out[i] = r.Snapshot()
	}
	return out
}

// sweeps returns the registered sweep runs, in start order.
func (o *Observer) sweeps() []*SweepStats {
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]*SweepStats(nil), o.runs...)
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
// uptime, the Runtime sum and every sweep run with its cell records.
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
