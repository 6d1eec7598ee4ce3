// Package obsv is the simulator's run-time observability plane
// (DESIGN.md §13): zero-alloc hot-path instruments (counters, high-water
// marks, fixed-bucket histograms), the aggregation pipeline that carries
// engine and sweep metrics to the export surfaces, and those surfaces
// themselves — the live progress line, the Prometheus /metrics endpoint
// with its fixed metric families, the /runs JSON feed and the end-of-run
// snapshot file.
//
// The design constraint is determinism (DESIGN.md §1): nothing in this
// package may influence a simulation's event order, and nothing outside
// this package and cmd/ may read a wall clock. Three rules follow:
//
//  1. Hot-path instruments are plain, unsynchronized struct fields. An
//     engine (one sim.Sim) bumps the EngineStats block of the Cell record
//     it works for with single writes behind one nil check. The record
//     belongs to one sweep worker until the cell ends, so no
//     synchronization enters the engine packages and pdqlint's cellsafe
//     analyzer stays green.
//
//  2. A finished Cell is handed to its run's SweepStats once, and every
//     aggregate — a run's counts and cell-time histogram, the process
//     Runtime — is a read of the finished records. SweepStats is written
//     from many goroutines and read live by the HTTP server, so it is
//     atomic and mutex-guarded; it is never on a simulation hot path.
//
//  3. Wall-clock reads happen only through an injected Clock. The one
//     implementation backed by time.Now lives here (WallClock), which
//     is why pdqlint's nodeterm analyzer whitelists this package — and
//     only this package — for wall-clock calls; everything else under
//     internal/ takes a Clock value, and tests inject fakes. A nil
//     Clock disables the timing-derived metrics (cell latency
//     histograms, rates and ETAs) while the pure counters keep
//     working.
package obsv

import (
	"strconv"
	"time"
)

// Clock reports wall time as nanoseconds since an arbitrary fixed
// epoch. Only differences are meaningful. A nil Clock disables the
// timing-derived metrics of whatever it would have been injected into.
type Clock func() int64

// WallClock is the real-time Clock, the only wall-clock read in the
// module outside cmd/ (see the package doc and DESIGN.md §13.3). The
// command layer injects it; library tests inject fakes.
func WallClock() int64 { return time.Now().UnixNano() }

// Counter is a monotonically increasing count. It is a plain
// single-writer instrument: safe for one goroutine only — the
// engine-side half of rule 1 above.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// MarshalJSON writes the count as a plain number.
func (c Counter) MarshalJSON() ([]byte, error) { return strconv.AppendUint(nil, c.v, 10), nil }

// HighWater is a plain single-writer maximum tracker.
type HighWater struct{ v int64 }

// Observe raises the mark to v if v is higher.
func (h *HighWater) Observe(v int64) {
	if v > h.v {
		h.v = v
	}
}

// Value returns the high-water mark.
func (h *HighWater) Value() int64 { return h.v }

// MarshalJSON writes the mark as a plain number.
func (h HighWater) MarshalJSON() ([]byte, error) { return strconv.AppendInt(nil, h.v, 10), nil }

// Histogram is a fixed-bucket distribution: bounds are the inclusive
// upper edges of each bucket, fixed at construction, with an implicit
// +Inf overflow bucket. Observation is a short linear scan over the
// bounds slice — no allocation, no binary-search branching worth the
// cost at the ~16-bucket sizes used here. Like the other instruments it
// is plain and single-writer; aggregation points guard it themselves.
type Histogram struct {
	bounds []float64 // inclusive upper bucket edges, ascending
	counts []uint64  // len(bounds)+1: last is the +Inf overflow bucket
	sum    float64
	n      uint64
}

// NewHistogram creates a histogram over the given ascending upper
// bucket edges. The bounds slice is retained, not copied.
func NewHistogram(bounds []float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obsv: histogram bounds must ascend")
		}
	}
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.sum += v
	h.n++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Bounds returns the bucket upper edges (without the +Inf overflow).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Cumulative returns the cumulative count at and below bounds[i]; i ==
// len(bounds) is the total (the +Inf bucket), matching the Prometheus
// histogram exposition.
func (h *Histogram) Cumulative(i int) uint64 {
	var c uint64
	for j := 0; j <= i && j < len(h.counts); j++ {
		c += h.counts[j]
	}
	return c
}

// EngineStats is the event-loop instrument block of one Cell record: the
// sim.Sim it is attached to (via Sim.SetStats) bumps it inline in the
// scheduling hot paths — one nil check, then plain field writes, zero
// allocations. Every engine a cell runs adds to its block (DESIGN.md
// §13.1). The JSON names are RuntimeSnapshot's.
type EngineStats struct {
	Scheduled Counter `json:"events_scheduled"` // events scheduled (At/AtRunner/After and chained deliveries)
	Fired     Counter `json:"events_fired"`     // events executed
	Cancelled Counter `json:"events_cancelled"` // events removed by Cancel before firing
	// Refilled counts the schedules (a subset of Scheduled) that landed in
	// the root hole their own firing event left on the heap backend: a
	// replace-top, one sift-down instead of a pop and a push (DESIGN.md
	// §2). Fired − Refilled is the number of pops paid in full.
	Refilled Counter `json:"events_refilled"`
	// QueueHWM is the high-water mark of the pending-event count, the heap
	// depth. A link keeps one delivery pending however many packets it
	// has in flight (DESIGN.md §3), so the mark reads about busy links
	// plus armed timers, not packets in flight.
	QueueHWM HighWater `json:"queue_highwater"`
}

// Add folds o into e: counts add, the high-water mark is the higher.
func (e *EngineStats) Add(o *EngineStats) {
	e.Scheduled.Add(o.Scheduled.v)
	e.Fired.Add(o.Fired.v)
	e.Cancelled.Add(o.Cancelled.v)
	e.Refilled.Add(o.Refilled.v)
	e.QueueHWM.Observe(o.QueueHWM.v)
}
