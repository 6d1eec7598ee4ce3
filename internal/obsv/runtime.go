package obsv

import "sync/atomic"

// Shard-runtime barrier phases, in dispatch order. These mirror the
// jobSort/jobInject/jobSettle/jobWindow job kinds in internal/sim's
// shard runtime; the shard driver times each dispatch and attributes
// the wall time here by phase index.
const (
	PhaseSort = iota
	PhaseInject
	PhaseSettle
	PhaseWindow
	numPhases
)

// PhaseNames maps the Phase* indices to their exposition labels.
var PhaseNames = [numPhases]string{"sort", "inject", "settle", "window"}

// Runtime is the process-wide aggregation point for engine and shard
// metrics. Everything in it is atomic: writers are shard drivers
// merging per-shard EngineStats deltas at barriers and sweep workers
// merging at cell end, while the HTTP server reads it live at any
// moment. It is never touched from a simulation hot path — writes
// arrive a handful of times per barrier window or per cell.
type Runtime struct {
	scheduled atomic.Uint64 // events scheduled, all engines
	fired     atomic.Uint64 // events fired, all engines
	cancelled atomic.Uint64 // events cancelled, all engines
	refilled  atomic.Uint64 // schedules that replaced the heap root, all engines
	queueHWM  atomic.Int64  // max pending-event depth seen by any engine

	windows      atomic.Uint64 // barrier windows executed by shard groups
	idleSkips    atomic.Uint64 // windows skipped over (idle fast-forward)
	handoffs     atomic.Uint64 // cross-shard handoffs carried
	handoffBytes atomic.Uint64 // wire bytes of those handoffs

	phaseNs [numPhases]atomic.Int64 // wall ns per barrier phase

	shardsActive atomic.Int64 // engines of the most recently configured cell; 1 = single engine
}

// MergeEngine folds an engine's private stats into the aggregate. The
// caller owns the timing: the engine must be quiescent (at a barrier,
// or done). Counters in st are cumulative, so callers that merge
// repeatedly must pass deltas; MergeEngineSince does that bookkeeping.
func (r *Runtime) MergeEngine(st *EngineStats) {
	if r == nil || st == nil {
		return
	}
	r.scheduled.Add(st.Scheduled.Value())
	r.fired.Add(st.Fired.Value())
	r.cancelled.Add(st.Cancelled.Value())
	r.refilled.Add(st.Refilled.Value())
	r.ObserveQueueHWM(st.QueueHWM.Value())
}

// MergeEngineSince folds the growth of st since prev into the
// aggregate, then updates prev to st's current values. Shard drivers
// use it to merge at every barrier without double counting.
func (r *Runtime) MergeEngineSince(st *EngineStats, prev *EngineStats) {
	if r == nil || st == nil {
		return
	}
	r.scheduled.Add(st.Scheduled.Value() - prev.Scheduled.Value())
	r.fired.Add(st.Fired.Value() - prev.Fired.Value())
	r.cancelled.Add(st.Cancelled.Value() - prev.Cancelled.Value())
	r.refilled.Add(st.Refilled.Value() - prev.Refilled.Value())
	r.ObserveQueueHWM(st.QueueHWM.Value())
	*prev = *st
}

// ObserveQueueHWM raises the aggregate queue high-water mark.
func (r *Runtime) ObserveQueueHWM(v int64) {
	if r == nil {
		return
	}
	for {
		cur := r.queueHWM.Load()
		if v <= cur || r.queueHWM.CompareAndSwap(cur, v) {
			return
		}
	}
}

// AddWindows records n executed barrier windows.
func (r *Runtime) AddWindows(n uint64) {
	if r != nil {
		r.windows.Add(n)
	}
}

// AddIdleSkips records n windows fast-forwarded over while idle.
func (r *Runtime) AddIdleSkips(n uint64) {
	if r != nil {
		r.idleSkips.Add(n)
	}
}

// AddHandoffs records n cross-shard handoffs carrying bytes wire bytes.
func (r *Runtime) AddHandoffs(n, bytes uint64) {
	if r != nil {
		r.handoffs.Add(n)
		r.handoffBytes.Add(bytes)
	}
}

// SetShardsActive records how many engines the most recently
// configured cell runs on: the shard count when it built a group, 1
// when it fell back to (or defaulted to) the single engine. Concurrent
// sweep workers race benignly — the gauge answers "is sharding actually
// engaging", not a per-cell ledger.
func (r *Runtime) SetShardsActive(n int64) {
	if r != nil {
		r.shardsActive.Store(n)
	}
}

// AddPhase attributes ns wall nanoseconds to barrier phase p.
func (r *Runtime) AddPhase(p int, ns int64) {
	if r != nil && p >= 0 && p < numPhases {
		r.phaseNs[p].Add(ns)
	}
}

// RuntimeSnapshot is a consistent-enough point-in-time copy of Runtime
// for export. Individual fields are atomically read; the set is not a
// single transaction, which is fine for monitoring.
type RuntimeSnapshot struct {
	Scheduled    uint64             `json:"events_scheduled"`
	Fired        uint64             `json:"events_fired"`
	Cancelled    uint64             `json:"events_cancelled"`
	Refilled     uint64             `json:"events_refilled"`
	QueueHWM     int64              `json:"queue_highwater"`
	Windows      uint64             `json:"shard_windows"`
	IdleSkips    uint64             `json:"shard_idle_skips"`
	Handoffs     uint64             `json:"shard_handoffs"`
	HandoffBytes uint64             `json:"shard_handoff_bytes"`
	ShardsActive int64              `json:"shards_active"`
	PhaseNs      [numPhases]int64   `json:"-"`
	PhaseSeconds map[string]float64 `json:"shard_phase_seconds,omitempty"`
}

// Snapshot copies the current aggregate values.
func (r *Runtime) Snapshot() RuntimeSnapshot {
	var s RuntimeSnapshot
	if r == nil {
		return s
	}
	s.Scheduled = r.scheduled.Load()
	s.Fired = r.fired.Load()
	s.Cancelled = r.cancelled.Load()
	s.Refilled = r.refilled.Load()
	s.QueueHWM = r.queueHWM.Load()
	s.Windows = r.windows.Load()
	s.IdleSkips = r.idleSkips.Load()
	s.Handoffs = r.handoffs.Load()
	s.HandoffBytes = r.handoffBytes.Load()
	s.ShardsActive = r.shardsActive.Load()
	var anyPhase bool
	for i := range s.PhaseNs {
		s.PhaseNs[i] = r.phaseNs[i].Load()
		anyPhase = anyPhase || s.PhaseNs[i] != 0
	}
	if anyPhase {
		s.PhaseSeconds = make(map[string]float64, numPhases)
		for i, name := range PhaseNames {
			s.PhaseSeconds[name] = float64(s.PhaseNs[i]) / 1e9
		}
	}
	return s
}
