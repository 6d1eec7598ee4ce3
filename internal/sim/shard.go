package sim

// This file implements the sharded event engine (DESIGN.md §12): N
// independent slot-pooled event loops advancing in lockstep over
// conservative time windows, with all inter-shard communication flowing
// through per-window mailboxes that are merged and injected at barriers
// in a canonical order.
//
// The synchronization protocol is the classic null-message-free barrier
// window: with lookahead L — a lower bound on the delay of any handoff
// (for the network simulator, the minimum link propagation+processing
// delay) — an event executing in window [w·L, (w+1)·L) can only produce
// handoffs due at or after (w+1)·L. Shards therefore run each window to
// completion in parallel without observing each other, and every handoff
// produced during the window is injected at the barrier, before the next
// window starts.
//
// Determinism is stronger than "same seed, same result": the output is
// byte-identical at any shard count. Three properties compose to give
// that (the proof sketch is DESIGN.md §12.3):
//
//  1. The window grid is a pure function of the global event set: windows
//     are aligned to multiples of L and idle regions are skipped to the
//     window containing the globally earliest pending event, which is
//     partition-independent.
//  2. Every handoff is injected through the mailbox — including handoffs
//     whose producer and consumer happen to share a shard — at its
//     barrier, in the canonical order (Due, Ta, Pa, Link, Ctr). The injection
//     point (which barrier) and the injection order are therefore
//     partition-independent.
//  3. Events a shard schedules locally (timers) target objects owned by
//     that shard, so each owned object's event stream interleaves only
//     with streams of co-owned objects, in an order fixed by 1+2.
//
// Sequence numbers are per-shard, so their absolute values change with
// the partitioning; the engine guarantees only that the relative order of
// any two events observable by the same owned object is invariant, which
// is exactly what the simulation model compares (DESIGN.md §3).

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"pdq/internal/obsv"
)

// Handoff is one cross-window delivery: a Runner to fire at Due on shard
// To. Ta, Pa, Link and Ctr make the injection order canonical — and
// therefore partition-independent — at barriers: handoffs are sorted by
// (Due, Ta, Pa, Link, Ctr) before injection, and (Link, Ctr) is unique, so
// the order is total.
//
// Ta is the producing instant (the network's enqueue time): on a single
// engine a delivery's seq is assigned at enqueue, so same-Due handoffs of
// distinct producing instants order by Ta there too. Pa extends the match
// one generation: same-(Due, Ta) handoffs were produced by two ops at the
// same instant, which a single engine runs in the order of their parent
// events' scheduling instants — Pa is that parent ta (Sim.EventTa at
// production). Both are virtual-time quantities, hence partition-
// independent. Deeper coincidences — equal Due, Ta and Pa — fall through
// to the structural (Link, Ctr) key.
type Handoff struct {
	Due  Time   // firing time on the destination shard
	Ta   Time   // producing instant (canonical tiebreak before Pa)
	Pa   Time   // producing event's own scheduling instant (see above)
	Link uint32 // producing channel (the network's directed link ID)
	Ctr  uint32 // per-channel monotone counter: (Link, Ctr) is unique
	To   int32  // destination shard
	// Bytes is the payload's wire size, carried for observability only
	// (handoff volume accounting, DESIGN.md §13) — it never enters the
	// injection order.
	Bytes uint32
	R     Runner
}

// ShardGroup runs N Sims in lockstep over conservative barrier windows of
// width equal to the lookahead. It is created empty and driven by one
// goroutine (RunUntil); only Post — from shard workers during a window —
// and Interrupt are called concurrently, and Post is safe because each
// source shard owns its outbox.
type ShardGroup struct {
	sims []*Sim
	look Duration

	// out[i] is shard i's outbox for the current window, appended to only
	// by shard i's worker and drained at the barrier. dirty[i] marks it
	// unsorted; shard i's worker sorts it destination-major at window end,
	// so a sort phase runs at a barrier only when Post was called outside
	// a window (setup).
	out   [][]Handoff
	dirty []bool

	// preWindow, when set, runs on each shard's worker at the start of
	// every window, before any event fires: the network layer uses it to
	// settle lazy per-link accounting up to the window start.
	preWindow func(shard int, windowStart Time)

	// barrier, when set, runs on the driver goroutine at every window
	// boundary with all workers parked (see SetBarrierHook).
	barrier func(windowStart Time)

	maxEvents   uint64
	interrupted atomic.Bool

	now    Time
	runs   [][][]Handoff // per-destination merge scratch (see injectShard)
	panics []any

	// Observability (DESIGN.md §13), all optional. obs is the shared
	// aggregate written only from the driver goroutine at barriers, when
	// every worker is parked; clock is the injected wall clock for phase
	// timing (nil disables it — nodeterm keeps real clocks out of this
	// package). engPrev holds the per-shard merge baselines so barrier
	// merges fold in deltas without double counting.
	obs     *obsv.Runtime
	clock   obsv.Clock
	engPrev []obsv.EngineStats
	started bool // a window has run; distinguishes idle skips from startup
}

// NewShardGroup creates n shards with the given lookahead (the barrier
// window width). Every Handoff posted during a window must be due at or
// after the next window boundary; lookahead must be a positive lower
// bound on handoff delay for that to hold.
func NewShardGroup(n int, lookahead Duration) *ShardGroup {
	if n < 1 {
		panic(fmt.Sprintf("sim: shard group of %d shards", n))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("sim: shard group lookahead %v must be positive", lookahead))
	}
	g := &ShardGroup{
		sims:   make([]*Sim, n),
		look:   lookahead,
		out:    make([][]Handoff, n),
		dirty:  make([]bool, n),
		runs:   make([][][]Handoff, n),
		panics: make([]any, n),
	}
	for i := range g.runs {
		g.runs[i] = make([][]Handoff, 0, n)
	}
	for i := range g.sims {
		g.sims[i] = New()
	}
	return g
}

// Shards returns the number of shards.
func (g *ShardGroup) Shards() int { return len(g.sims) }

// Shard returns shard i's engine, for setup-time scheduling and for
// owned objects to schedule their local (same-shard) events on.
func (g *ShardGroup) Shard(i int) *Sim { return g.sims[i] }

// Lookahead returns the barrier window width.
func (g *ShardGroup) Lookahead() Duration { return g.look }

// Post appends a handoff to source shard from's outbox. During a window
// it may only be called from that shard's worker; between windows (setup)
// any goroutine may call it. The handoff fires on shard h.To at h.Due,
// after the barrier sorts the window's handoffs canonically.
func (g *ShardGroup) Post(from int, h Handoff) {
	g.out[from] = append(g.out[from], h)
	g.dirty[from] = true
}

// SetObserver attaches the shared runtime aggregate and an injected
// wall clock (either may be nil) and gives every shard a private
// EngineStats block. Call before RunUntil. Shard workers only bump
// their own plain blocks; the driver folds deltas into rt at barriers
// and times each phase with clock, so instrumentation adds no
// synchronization to the window hot path (DESIGN.md §13.2).
func (g *ShardGroup) SetObserver(rt *obsv.Runtime, clock obsv.Clock) {
	g.obs = rt
	g.clock = clock
	g.engPrev = make([]obsv.EngineStats, len(g.sims))
	for _, s := range g.sims {
		s.SetStats(&obsv.EngineStats{})
	}
}

// mergeEngineStats folds each shard's counter growth since the last
// barrier into the shared aggregate. Driver-only, workers parked.
func (g *ShardGroup) mergeEngineStats() {
	for i, s := range g.sims {
		if s.stats != nil {
			g.obs.MergeEngineSince(s.stats, &g.engPrev[i])
		}
	}
}

// SetPreWindow installs a hook run on each shard's worker at the start of
// every window. The hooks form their own barrier phase: every shard's
// hook completes before any shard fires an event of the window, so a hook
// may safely touch state that the window's events on other shards mutate.
func (g *ShardGroup) SetPreWindow(fn func(shard int, windowStart Time)) { g.preWindow = fn }

// SetBarrierHook installs fn, called on the driver goroutine before
// each window [windowStart, windowStart+lookahead) dispatches, with
// every worker parked: all events earlier than windowStart have fired
// on every shard, and nothing runs concurrently with fn. The telemetry
// plane uses it to cut value-exact samples at instants before the
// window (DESIGN.md §14); keep hooks cheap — they serialize the
// barrier. Call before RunUntil.
func (g *ShardGroup) SetBarrierHook(fn func(windowStart Time)) { g.barrier = fn }

// SetMaxEvents bounds the total number of events the group may execute,
// checked at barriers: the run panics with EventLimitError at the first
// barrier where the group total reaches n. Barrier granularity keeps the
// trip deterministic — window event totals are partition-independent —
// where a mid-window trip would depend on worker interleaving.
func (g *ShardGroup) SetMaxEvents(n uint64) { g.maxEvents = n }

// Interrupt requests that the running group stop with an InterruptError
// panic, like Sim.Interrupt. Safe to call from any goroutine.
func (g *ShardGroup) Interrupt() {
	g.interrupted.Store(true)
	for _, s := range g.sims {
		s.Interrupt()
	}
}

// Now returns the group clock: the end of the last completed window,
// clamped to the RunUntil horizon.
func (g *ShardGroup) Now() Time { return g.now }

// Processed returns the total number of events executed across shards.
func (g *ShardGroup) Processed() uint64 {
	var n uint64
	for _, s := range g.sims {
		n += s.nRun
	}
	return n
}

// Pending returns the total number of scheduled events across shards,
// not counting handoffs posted but not yet injected.
func (g *ShardGroup) Pending() int {
	n := 0
	for _, s := range g.sims {
		n += s.Pending()
	}
	return n
}

// PeekTime returns the earliest pending event time across the engine's
// backends, or MaxTime when the queue is empty.
func (s *Sim) PeekTime() Time {
	if next := s.head(); next != nil {
		return next.at
	}
	return MaxTime
}

// cmpHandoff orders a source outbox for barrier injection: destination
// shard first, so each destination's handoffs form one contiguous sorted
// run, then the canonical (Due, Ta, Pa, Link, Ctr) key within the run.
// (Link, Ctr) is unique, so the order is strict and sort stability is
// irrelevant.
func cmpHandoff(a, b Handoff) int {
	if a.To != b.To {
		if a.To < b.To {
			return -1
		}
		return 1
	}
	if c := keyCmp(&a, &b); c != 0 {
		return c
	}
	return 0
}

// keyCmp compares the canonical injection key (Due, Ta, Pa, Link, Ctr).
func keyCmp(a, b *Handoff) int {
	switch {
	case a.Due != b.Due:
		if a.Due < b.Due {
			return -1
		}
		return 1
	case a.Ta != b.Ta:
		if a.Ta < b.Ta {
			return -1
		}
		return 1
	case a.Pa != b.Pa:
		if a.Pa < b.Pa {
			return -1
		}
		return 1
	case a.Link != b.Link:
		if a.Link < b.Link {
			return -1
		}
		return 1
	case a.Ctr != b.Ctr:
		if a.Ctr < b.Ctr {
			return -1
		}
		return 1
	}
	return 0
}

// destRun returns the contiguous segment of a destination-major sorted
// outbox holding shard d's handoffs.
func destRun(out []Handoff, d int32) []Handoff {
	lo := sort.Search(len(out), func(k int) bool { return out[k].To >= d })
	hi := sort.Search(len(out), func(k int) bool { return out[k].To > d })
	return out[lo:hi]
}

// sortOutbox sorts shard i's outbox destination-major; it runs on shard
// i's worker, in parallel across shards, so the barrier's serial section
// stays O(shards) regardless of handoff volume.
func (g *ShardGroup) sortOutbox(i int) {
	if !g.dirty[i] {
		return
	}
	slices.SortFunc(g.out[i], cmpHandoff)
	g.dirty[i] = false
}

// injectShard merges, in canonical key order, every outbox's run destined
// for shard d and schedules the handoffs there. It runs on shard d's
// worker — destinations are mutually independent, so injection
// parallelizes the same way the windows do. The merge order, and with it
// the destination-shard sequence numbers it assigns, depends only on the
// canonical key — the partition-independent interleaving the determinism
// argument rests on.
func (g *ShardGroup) injectShard(d int) {
	runs := g.runs[d][:0]
	for i := range g.out {
		if r := destRun(g.out[i], int32(d)); len(r) > 0 {
			runs = append(runs, r)
		}
	}
	s := g.sims[d]
	for len(runs) > 0 {
		best := 0
		for j := 1; j < len(runs); j++ {
			if keyCmp(&runs[j][0], &runs[best][0]) < 0 {
				best = j
			}
		}
		h := &runs[best][0]
		if h.Due <= g.now && g.now > 0 {
			panic(fmt.Sprintf("sim: handoff due %v violates lookahead at barrier %v", h.Due, g.now))
		}
		// The handoff is backdated to its producing instant and stamped
		// with its structural channel key: the event's (at, ta, tie, seq)
		// key then orders it against the destination shard's local timers
		// and same-instant deliveries exactly where the single engine —
		// which scheduled the delivery at that enqueue instant with the
		// same key — would have placed it.
		s.AtRunnerStamped(h.Due, h.Ta, uint64(h.Link+1)<<32|uint64(h.Ctr), h.R)
		if runs[best] = runs[best][1:]; len(runs[best]) == 0 {
			runs[best] = runs[len(runs)-1]
			runs = runs[:len(runs)-1]
		}
	}
	g.runs[d] = runs[:0]
}

// windowJob is one shard's work order for a barrier phase: sort its
// outbox, inject its inbound handoffs, or run a window of events.
type windowJob struct {
	kind       jobKind
	start, end Time
}

type jobKind uint8

const (
	jobSort jobKind = iota
	jobInject
	jobSettle
	jobWindow
)

// RunUntil advances the group until every event with time <= end has
// fired, window by window: inject pending handoffs, find the globally
// earliest pending event, run its (grid-aligned) window on all shards in
// parallel, repeat. Idle stretches are skipped by jumping the grid to the
// window containing the earliest event — a pure function of the global
// event set, so the executed window sequence is partition-independent.
func (g *ShardGroup) RunUntil(end Time) {
	n := len(g.sims)
	jobs := make([]chan windowJob, n)
	done := make(chan struct{}, n)
	for i := 0; i < n; i++ {
		jobs[i] = make(chan windowJob, 1)
		go g.worker(i, jobs[i], done)
	}
	defer func() {
		for i := range jobs {
			close(jobs[i])
		}
	}()

	// dispatch fans one phase out to every worker and re-raises captured
	// panics lowest shard first, so the surfaced panic is deterministic
	// for deterministic causes. With an observer attached it also
	// attributes the barrier's wall time to the phase — clock reads
	// bracket the whole fan-out, on the driver goroutine only.
	dispatch := func(j windowJob) {
		var t0 int64
		timed := g.obs != nil && g.clock != nil
		if timed {
			t0 = g.clock()
		}
		for i := range jobs {
			jobs[i] <- j
		}
		for range jobs {
			<-done
		}
		if timed {
			g.obs.AddPhase(phaseIndex(j.kind), g.clock()-t0)
		}
		for i := range g.panics {
			if g.panics[i] != nil {
				panic(g.panics[i])
			}
		}
	}

	for {
		pending, unsorted := 0, false
		for i := range g.out {
			pending += len(g.out[i])
			unsorted = unsorted || g.dirty[i]
		}
		if pending > 0 {
			// Two parallel phases replace a serial merge over every handoff:
			// each shard sorts its own outbox destination-major (normally
			// already done at its window's end), then each destination merges
			// and injects its inbound runs. The barrier's serial section
			// stays O(shards).
			if unsorted {
				dispatch(windowJob{kind: jobSort})
			}
			dispatch(windowJob{kind: jobInject})
			if g.obs != nil {
				var bytes uint64
				for i := range g.out {
					for j := range g.out[i] {
						bytes += uint64(g.out[i][j].Bytes)
					}
				}
				g.obs.AddHandoffs(uint64(pending), bytes)
			}
			for i := range g.out {
				g.out[i] = g.out[i][:0]
			}
		}
		first := MaxTime
		for _, s := range g.sims {
			if t := s.PeekTime(); t < first {
				first = t
			}
		}
		if first == MaxTime {
			// Drained: the clock keeps the last completed window, like a
			// drained Sim keeps its last event's time.
			if g.obs != nil {
				g.mergeEngineStats()
			}
			return
		}
		if first > end {
			// Events remain beyond the horizon: the clock advances to
			// exactly end, like Sim.RunUntil.
			g.now = end
			if g.obs != nil {
				g.mergeEngineStats()
			}
			return
		}
		if g.interrupted.Load() {
			panic(InterruptError{Events: g.Processed(), At: g.now})
		}
		wStart := first - first%g.look
		wEnd := wStart + g.look - 1
		if wEnd > end {
			wEnd = end
		}
		if g.obs != nil {
			// Windows fast-forwarded over: the grid jump from the end of
			// the last window (or from time zero before any window ran).
			prev := g.now + 1
			if !g.started {
				prev = 0
			}
			if wStart > prev {
				g.obs.AddIdleSkips(uint64((wStart - prev) / g.look))
			}
		}
		if g.barrier != nil {
			g.barrier(wStart)
		}
		if g.preWindow != nil {
			// The settle phase is its own barrier: every shard's pre-window
			// hook must finish before any shard fires a window event, because
			// settling walks state (packet serializer links) that this
			// window's events on other shards may rewrite.
			dispatch(windowJob{kind: jobSettle, start: wStart})
		}
		dispatch(windowJob{kind: jobWindow, start: wStart, end: wEnd})
		g.now = wEnd
		g.started = true
		if g.obs != nil {
			g.obs.AddWindows(1)
			g.mergeEngineStats()
		}
		if g.maxEvents != 0 && g.Processed() >= g.maxEvents {
			panic(EventLimitError{Events: g.Processed(), At: g.now})
		}
	}
}

// phaseIndex maps a barrier job kind to its obsv phase slot.
func phaseIndex(k jobKind) int {
	switch k {
	case jobSort:
		return obsv.PhaseSort
	case jobInject:
		return obsv.PhaseInject
	case jobSettle:
		return obsv.PhaseSettle
	default:
		return obsv.PhaseWindow
	}
}

// worker is one shard's phase loop: sort its outbox, inject its inbound
// handoffs, or run the pre-window hook and the shard's events up to the
// window end. Panics (event budget, interrupt, model bugs) are captured
// per shard and re-raised at the barrier by dispatch.
func (g *ShardGroup) worker(i int, jobs <-chan windowJob, done chan<- struct{}) {
	for j := range jobs {
		func() {
			defer func() {
				if r := recover(); r != nil {
					g.panics[i] = r
				}
				done <- struct{}{}
			}()
			switch j.kind {
			case jobSort:
				g.sortOutbox(i)
			case jobInject:
				g.injectShard(i)
			case jobSettle:
				g.preWindow(i, j.start)
			default:
				g.sims[i].RunUntil(j.end)
				g.sortOutbox(i)
			}
		}()
	}
}
