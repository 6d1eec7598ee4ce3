package workload

import (
	"cmp"
	"slices"
	"sort"

	"pdq/internal/sim"
	"pdq/internal/trace"
)

// Collector accumulates per-flow outcomes during a simulation. Protocol
// agents report completions and terminations into a collector shared across
// all hosts of one experiment.
//
// Completion accounting is split by endpoint (DESIGN.md §14): the
// receiver's Finish and the sender's Terminate/SetBytesAcked write
// disjoint per-flow fields, and the winner — the earlier virtual
// instant, finish on a tie — is resolved only when a result is read
// (Get, Results, ActiveAt). Under the sharded engine a flow's two
// endpoints live on different shards; per-endpoint fields mean neither
// shard ever writes state the other endpoint writes, and the merge is a
// pure function of virtual timestamps, so results are byte-identical at
// any shard count.
//
// A collector is also the simulators' telemetry emission point: when Sink
// is non-nil, every completion or termination additionally cuts a
// trace.FlowRecord (by value — no allocation). With the default nil Sink
// the only telemetry cost is one nil check per flow *completion*, so the
// packet/event hot paths are untouched (DESIGN.md §8).
type Collector struct {
	byID  map[uint64]*cell
	order []uint64

	// Sink receives one trace.FlowRecord per completion or termination;
	// nil (the default) disables record assembly entirely.
	Sink trace.Sink

	// deferEmit postpones record emission to FlushTrace. Traced
	// packet-level runs set it (DeferEmission) so a record is a pure
	// function of the merged post-run view — final counter totals, virtual
	// completion order — rather than a snapshot cut at whichever
	// completion event happens to fire first, which under sharding would
	// write the ring in physical, not virtual, order.
	deferEmit bool

	// The deadline tally, kept only once Watch has armed it (watch != nil).
	// due holds the deadline flows by ascending AbsDeadline; due[:passed]
	// are those whose deadline lies strictly before the latest outcome.
	watch  func(Tally)
	tally  Tally
	due    []*cell
	passed int
}

// Tally is a running account of the deadline flows of one run, as of its
// latest outcome (a flow's first Finish or first Terminate):
//
//   - Met flows finished at or before their deadline with no earlier
//     Terminate. Nothing that happens later un-meets one: merged() would
//     need a Terminate stamped before the finish, and on one engine every
//     later call carries a later-or-equal instant.
//   - Lost flows had not been met when an outcome arrived at an instant
//     strictly after their deadline. Nothing later meets one: every later
//     Finish is stamped after the deadline too. A flow that terminated is
//     not lost before then — a Finish at the Terminate instant still wins.
//
// So the run's final count of met flows lies in [Met, Total-Lost] from the
// first outcome on, and the interval only narrows. Both arguments need
// outcome instants that never decrease, which one engine gives and a shard
// group does not: the tally is not kept for a sharded run.
type Tally struct {
	Met, Lost, Total int
}

// cell is one flow's raw accounting: the sender-side counters in res
// plus the two endpoints' completion stamps. res.Finish, res.Terminated
// and res.BytesAcked are only materialized by merged().
type cell struct {
	res      Result   // Flow + sender-side counters
	finishAt sim.Time // receiver endpoint: first Finish instant, -1 = never
	termAt   sim.Time // sender endpoint: first Terminate instant, -1 = never
	termB    int64    // sender endpoint: SetBytesAcked value
	termBSet bool
	met      bool // counted in the collector's tally.Met
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{byID: map[uint64]*cell{}}
}

// Register records that flow f has been started. Finish is initialized to
// -1 ("never finished").
func (c *Collector) Register(f Flow) {
	if _, dup := c.byID[f.ID]; dup {
		panic("workload: duplicate flow ID registered")
	}
	if c.watch != nil {
		panic("workload: flow registered after Watch")
	}
	c.byID[f.ID] = &cell{res: Result{Flow: f, Finish: -1}, finishAt: -1, termAt: -1}
	c.order = append(c.order, f.ID)
}

// DeferEmission switches the collector to deferred record emission:
// Finish and Terminate stop cutting records eagerly, and FlushTrace
// emits them all after the run in virtual completion order. Traced
// packet-level runs call it before any flow starts, on every engine
// configuration, so sharded and single-engine record streams agree.
func (c *Collector) DeferEmission() { c.deferEmit = true }

// Watch arms the deadline tally over the flows registered so far — all of
// them: Register panics afterwards — and has fn called with it after every
// outcome. It belongs to single-engine runs (see Tally), whose outcome
// instants never decrease. Keeping the tally schedules nothing: it moves
// only inside Finish and Terminate, so the run's event stream is the one an
// unwatched run has.
func (c *Collector) Watch(fn func(Tally)) {
	for _, id := range c.order {
		if cl := c.byID[id]; cl.res.HasDeadline() {
			c.due = append(c.due, cl)
		}
	}
	slices.SortFunc(c.due, func(a, b *cell) int {
		return cmp.Compare(a.res.AbsDeadline(), b.res.AbsDeadline())
	})
	c.tally = Tally{Total: len(c.due)}
	c.watch = fn
}

// Tally returns the deadline tally as of the latest outcome; the zero
// Tally unless Watch armed it.
func (c *Collector) Tally() Tally { return c.tally }

// outcome advances the tally's lost count to instant now, that of a flow's
// first Finish or first Terminate, and reports the tally to the watcher.
func (c *Collector) outcome(now sim.Time) {
	for ; c.passed < len(c.due) && c.due[c.passed].res.AbsDeadline() < now; c.passed++ {
		if !c.due[c.passed].met {
			c.tally.Lost++
		}
	}
	c.watch(c.tally)
}

// Finish records that the receiver got the flow's last byte at time t.
// Later calls for the same flow are ignored (multipath subflows may race).
func (c *Collector) Finish(id uint64, t sim.Time) {
	cl := c.byID[id]
	if cl == nil {
		panic("workload: Finish for unregistered flow")
	}
	if cl.finishAt < 0 {
		cl.finishAt = t
		if c.eager() && cl.termAt < 0 {
			c.record(cl)
		}
		if c.watch != nil {
			// merged() is the one place the two endpoints' stamps are
			// weighed, so a Terminate at this same instant, or an earlier
			// one, counts here as it will when the results are read.
			if cl.res.HasDeadline() && cl.merged().MetDeadline() {
				cl.met = true
				c.tally.Met++
			}
			c.outcome(t)
		}
	}
}

// Terminate records that the flow gave up (Early Termination) at time t.
// A flow that finished at or before t stays finished — the merge in
// merged() resolves the race by virtual instant, not call order.
func (c *Collector) Terminate(id uint64, t sim.Time) {
	cl := c.byID[id]
	if cl == nil {
		panic("workload: Terminate for unregistered flow")
	}
	if cl.termAt < 0 {
		cl.termAt = t
		if c.eager() && cl.finishAt < 0 {
			c.record(cl)
		}
		if c.watch != nil {
			c.outcome(t)
		}
	}
}

// AddRetransmit counts one retransmitted data packet against the flow.
// Unknown IDs are ignored: retransmit accounting is telemetry, not
// protocol state.
func (c *Collector) AddRetransmit(id uint64) {
	if cl := c.byID[id]; cl != nil {
		cl.res.Retransmits++
	}
}

// AddPreemption counts one sending→paused transition against the flow.
func (c *Collector) AddPreemption(id uint64) {
	if cl := c.byID[id]; cl != nil {
		cl.res.Preemptions++
	}
}

// AddECNMark counts one ECN-marked acknowledgment (ECE echo) against
// the flow — DCTCP's congestion signal.
func (c *Collector) AddECNMark(id uint64) {
	if cl := c.byID[id]; cl != nil {
		cl.res.ECNMarks++
	}
}

// AddPrioPacket counts one data packet sent with an explicit priority
// stamp against the flow — pFabric's remaining-size priorities.
func (c *Collector) AddPrioPacket(id uint64) {
	if cl := c.byID[id]; cl != nil {
		cl.res.PrioPackets++
	}
}

// SetBytesAcked records the flow's acknowledged payload bytes, as seen
// by the sender. Emitters call it just before Terminate so a terminated
// flow's record carries its partial progress; a flow that only finishes
// reports its full size.
func (c *Collector) SetBytesAcked(id uint64, n int64) {
	if cl := c.byID[id]; cl != nil {
		cl.termB, cl.termBSet = n, true
	}
}

// ActiveAt counts flows that have started at or before now and neither
// finished nor terminated by now — the probers' active-flow series. The
// bound is on virtual instants, so the count is exact at any now, not
// just the caller's current clock.
func (c *Collector) ActiveAt(now sim.Time) int {
	n := 0
	for _, cl := range c.byID {
		if cl.res.Start <= now && !doneBy(cl.finishAt, now) && !doneBy(cl.termAt, now) {
			n++
		}
	}
	return n
}

// doneBy reports whether a completion stamp is set and at or before now.
func doneBy(at, now sim.Time) bool { return at >= 0 && at <= now }

// AllDone reports whether every registered flow has finished or
// terminated — probers stop sampling once nothing remains in flight.
func (c *Collector) AllDone() bool {
	for _, cl := range c.byID {
		if cl.finishAt < 0 && cl.termAt < 0 {
			return false
		}
	}
	return true
}

// AllDoneBy is the time-exact AllDone: every registered flow finished
// or terminated at or before instant now. The sharded probers' stop
// rule evaluates it at barriers for ticks the barrier has made final,
// so the answer is independent of how the run is partitioned.
func (c *Collector) AllDoneBy(now sim.Time) bool {
	for _, cl := range c.byID {
		d := cl.doneAt()
		if d < 0 || d > now {
			return false
		}
	}
	return true
}

// merged materializes one flow's result from the endpoint stamps: the
// finish time is the receiver's (recorded even for a terminated flow, as
// the eager accounting always did); Terminated holds iff the sender gave
// up strictly before the receiver finished (or the receiver never did);
// BytesAcked is the sender's last report when it made one, else the full
// size on a finish.
func (cl *cell) merged() Result {
	r := cl.res
	r.Finish = cl.finishAt
	fin, term := cl.finishAt >= 0, cl.termAt >= 0
	r.Terminated = term && !(fin && cl.finishAt <= cl.termAt)
	switch {
	case cl.termBSet:
		r.BytesAcked = cl.termB
	case fin:
		r.BytesAcked = r.Size
	}
	return r
}

// doneAt returns the virtual instant the flow's record was (or would
// have been) cut: the winning endpoint's stamp. Negative means still
// in flight.
func (cl *cell) doneAt() sim.Time {
	switch {
	case cl.finishAt < 0:
		return cl.termAt
	case cl.termAt < 0:
		return cl.finishAt
	case cl.termAt < cl.finishAt:
		return cl.termAt
	}
	return cl.finishAt
}

// eager reports whether a flow's trace record is cut at its first
// completion or termination rather than by FlushTrace. It is asked before
// the other endpoint's stamp is looked at: a sharded run never emits
// eagerly (no sink, or DeferEmission), so there Finish and Terminate each
// touch their own endpoint's fields only — reading the other's, even just
// to decide not to emit, races with the shard that writes it.
func (c *Collector) eager() bool { return c.Sink != nil && !c.deferEmit }

// record assembles and sinks one flow record from the merged view.
func (c *Collector) record(cl *cell) {
	r := cl.merged()
	cls := trace.ClassShort
	if r.Size >= ShortFlowCutoff {
		cls = trace.ClassLong
	}
	c.Sink.RecordFlow(trace.FlowRecord{
		ID: r.ID, Src: r.Src, Dst: r.Dst,
		Size: r.Size, Class: cls,
		Start: r.Start, Finish: r.Finish, Deadline: r.Deadline,
		Met: r.MetDeadline(), Terminated: r.Terminated,
		BytesAcked:  r.BytesAcked,
		Retransmits: r.Retransmits,
		Preemptions: r.Preemptions,
		ECNMarks:    r.ECNMarks,
		PrioPackets: r.PrioPackets,
	})
}

// FlushTrace emits the records a deferred-emission run accumulated: one
// per completed or terminated flow, ordered by completion instant with
// registration order breaking exact-instant ties. Called once, after the
// shard group has drained — a quiescent point, like the obsv.EngineStats
// merge (DESIGN.md §14).
func (c *Collector) FlushTrace() {
	if c.Sink == nil || !c.deferEmit {
		return
	}
	done := make([]*cell, 0, len(c.order))
	for _, id := range c.order {
		if cl := c.byID[id]; cl.doneAt() >= 0 {
			done = append(done, cl)
		}
	}
	sort.SliceStable(done, func(i, j int) bool { return done[i].doneAt() < done[j].doneAt() })
	for _, cl := range done {
		c.record(cl)
	}
}

// Get returns the current result for a flow.
func (c *Collector) Get(id uint64) Result { return c.byID[id].merged() }

// Results returns a snapshot of all results in registration order.
func (c *Collector) Results() []Result {
	out := make([]Result, len(c.order))
	for i, id := range c.order {
		out[i] = c.byID[id].merged()
	}
	return out
}
