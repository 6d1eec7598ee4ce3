// Package obsv is the simulator's run-time observability plane
// (DESIGN.md §13): a metrics registry over zero-alloc hot-path
// instruments (counters, gauges, high-water marks, fixed-bucket
// histograms), the aggregation pipeline that carries engine, shard and
// sweep metrics to the export surfaces, and those surfaces themselves —
// the live progress line, the Prometheus /metrics endpoint, the /runs
// JSON feed and the end-of-run snapshot file.
//
// The design constraint is determinism (DESIGN.md §1): nothing in this
// package may influence a simulation's event order, and nothing outside
// this package and cmd/ may read a wall clock. Three rules follow:
//
//  1. Hot-path instruments are plain, unsynchronized struct fields. An
//     engine (one sim.Sim — a shard, in sharded runs) owns a private
//     EngineStats instance and bumps it with single writes behind one
//     nil check; disabled instrumentation is exactly one predictable
//     branch. Per-shard instances are merged into the shared Runtime
//     aggregator only at barriers (or at run end), where the shards are
//     quiescent, so no synchronization enters the engine packages and
//     pdqlint's shardsafe analyzer stays green.
//
//  2. Aggregation points (Runtime, SweepStats) are written from many
//     goroutines — sweep workers finishing cells, shard drivers merging
//     at barriers — and read live by the HTTP server, so they are
//     atomic or mutex-guarded. They are never on a simulation hot path:
//     the engine touches them a handful of times per cell.
//
//  3. Wall-clock reads happen only through an injected Clock. The one
//     implementation backed by time.Now lives here (WallClock), which
//     is why pdqlint's nodeterm analyzer whitelists this package — and
//     only this package — for wall-clock calls; everything else under
//     internal/ takes a Clock value, and tests inject fakes. A nil
//     Clock disables the timing-derived metrics (phase durations, cell
//     latency histograms, rates and ETAs) while the pure counters keep
//     working.
package obsv

import "time"

// Clock reports wall time as nanoseconds since an arbitrary fixed
// epoch. Only differences are meaningful. A nil Clock disables the
// timing-derived metrics of whatever it would have been injected into.
type Clock func() int64

// WallClock is the real-time Clock, the only wall-clock read in the
// module outside cmd/ (see the package doc and DESIGN.md §13.3). The
// command layer injects it; library tests inject fakes.
func WallClock() int64 { return time.Now().UnixNano() }

// Counter is a monotonically increasing count. It is a plain
// single-writer instrument: safe for one goroutine (or externally
// synchronized phases) only — the engine-side half of rule 1 above.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v += n }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v }

// Gauge is a plain single-writer instantaneous value.
type Gauge struct{ v int64 }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v = v }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v }

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

// EngineStats is one event engine's private instrument block: the
// sim.Sim it is attached to (via Sim.SetStats) bumps it inline in the
// scheduling hot paths — one nil check, then plain field writes, zero
// allocations. In a sharded run every shard's Sim carries its own
// instance; the shard driver merges them into the shared Runtime at
// barriers, when the workers are quiescent (DESIGN.md §13.2).
type EngineStats struct {
	Scheduled Counter // events scheduled (At/AtRunner/After and handoff injection)
	Fired     Counter // events executed
	Cancelled Counter // events removed by Cancel before firing
	// Refilled counts the schedules (a subset of Scheduled) that landed in
	// the root hole their own firing event left on the heap backend: a
	// replace-top, one sift-down instead of a pop and a push (DESIGN.md
	// §2). Fired − Refilled is the number of pops paid in full; the wheel
	// and barrier injection never refill.
	Refilled Counter
	// QueueHWM is the high-water mark of the pending-event count — heap
	// depth on the heap backend, live occupancy on the timer wheel. A
	// single-engine link keeps one delivery pending however many packets
	// it has in flight (DESIGN.md §3), so the mark reads about busy links
	// plus armed timers, not packets in flight; sharded runs still hold
	// one event per packet.
	QueueHWM HighWater
}
