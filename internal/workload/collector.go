package workload

import (
	"cmp"
	"slices"

	"pdq/internal/carve"
	"pdq/internal/sim"
)

// Collector accumulates per-flow outcomes during a simulation. Protocol
// agents report completions and terminations into a collector shared across
// all hosts of one experiment.
//
// Completion accounting is split by endpoint: the receiver's Finish and
// the sender's Terminate/SetBytesAcked write disjoint per-flow fields, and
// the winner — the earlier virtual instant, finish on a tie — is resolved
// only when a result is read (Get, Results, ActiveAt). The merge is a pure
// function of virtual timestamps, not of the order the two endpoints
// happened to report in. The same merged view is what Resolved hands the
// trace plane's flow records once the engine has stopped (DESIGN.md §8).
//
// Flows live in one dense table in registration order; a flow's index in
// it is its slot. Register hands back a Ref, the slot with its collector,
// and everything a flow reports goes through it without a lookup. Flow
// IDs usually arrive in increasing order, and then a lookup by ID (Of) is
// a binary search; only a collector whose IDs arrive out of order builds
// an index.
type Collector struct {
	cells []*cell             // by slot
	chunk *carve.Chunks[cell] // what cells are carved from
	index map[uint64]int32    // flow ID → slot; nil while IDs arrive in increasing order

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
// outcome instants that never decrease, which the engine gives.
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

// NewCollector returns an empty collector that carves its cells on its
// own.
func NewCollector() *Collector { return NewCollectorIn(nil) }

// NewCollectorIn returns an empty collector whose cells are carved from
// a, a network's arena (nil: on its own). The cells are the run's:
// results leave through the copies Results and Resolved make.
func NewCollectorIn(a *carve.Arena) *Collector { return &Collector{chunk: carve.Of[cell](a)} }

// Ref is one registered flow's handle on its collector: the collector and
// the flow's slot. It is what a flow reports its outcome and counters
// through.
type Ref struct {
	c    *Collector
	slot int32
}

// Slot returns the flow's index in registration order.
func (r Ref) Slot() int32 { return r.slot }

func (r Ref) cell() *cell { return r.c.cells[r.slot] }

// Register records that flow f has been started and returns its Ref; its
// slot is the number of flows registered before it. Finish is initialized
// to -1 ("never finished").
func (c *Collector) Register(f Flow) Ref {
	if c.watch != nil {
		panic("workload: flow registered after Watch")
	}
	slot := int32(len(c.cells))
	if c.index == nil && slot > 0 && f.ID <= c.cells[slot-1].res.ID {
		c.index = make(map[uint64]int32, len(c.cells)+1)
		for i, cl := range c.cells {
			c.index[cl.res.ID] = int32(i)
		}
	}
	if c.index != nil {
		if _, dup := c.index[f.ID]; dup {
			panic("workload: duplicate flow ID registered")
		}
		c.index[f.ID] = slot
	}
	cl := c.chunk.New()
	*cl = cell{res: Result{Flow: f, Finish: -1}, finishAt: -1, termAt: -1}
	c.cells = append(c.cells, cl)
	return Ref{c, slot}
}

// lookup returns the slot of the flow registered under id.
func (c *Collector) lookup(id uint64) (int32, bool) {
	if c.index != nil {
		slot, ok := c.index[id]
		return slot, ok
	}
	i, ok := slices.BinarySearchFunc(c.cells, id, func(cl *cell, id uint64) int { return cmp.Compare(cl.res.ID, id) })
	return int32(i), ok
}

// Of returns the Ref of the flow registered under id; it panics if there
// is none.
func (c *Collector) Of(id uint64) Ref {
	slot, ok := c.lookup(id)
	if !ok {
		panic("workload: no flow registered under this ID")
	}
	return Ref{c, slot}
}

// Watch arms the deadline tally over the flows registered so far — all of
// them: Register panics afterwards — and has fn called with it after every
// outcome, whose instants never decrease (see Tally). Keeping the tally
// schedules nothing: it moves
// only inside Finish and Terminate, so the run's event stream is the one an
// unwatched run has.
func (c *Collector) Watch(fn func(Tally)) {
	for _, cl := range c.cells {
		if cl.res.HasDeadline() {
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

// Finish is Of(id).Finish(t), for a caller that holds the flow's ID but
// not its Ref.
func (c *Collector) Finish(id uint64, t sim.Time) { c.Of(id).Finish(t) }

// Finish records that the receiver got the flow's last byte at time t.
// Later calls for the same flow are ignored (multipath subflows may race).
func (r Ref) Finish(t sim.Time) {
	c, cl := r.c, r.cell()
	if cl.finishAt < 0 {
		cl.finishAt = t
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
func (r Ref) Terminate(t sim.Time) {
	c, cl := r.c, r.cell()
	if cl.termAt < 0 {
		cl.termAt = t
		if c.watch != nil {
			c.outcome(t)
		}
	}
}

// AddRetransmit counts one retransmitted data packet against the flow.
func (r Ref) AddRetransmit() { r.cell().res.Retransmits++ }

// AddPreemption counts one sending→paused transition against the flow.
func (r Ref) AddPreemption() { r.cell().res.Preemptions++ }

// AddECNMark counts one ECN-marked acknowledgment (ECE echo) against
// the flow — DCTCP's congestion signal.
func (r Ref) AddECNMark() { r.cell().res.ECNMarks++ }

// AddPrioPacket counts one data packet sent with an explicit priority
// stamp against the flow — pFabric's remaining-size priorities.
func (r Ref) AddPrioPacket() { r.cell().res.PrioPackets++ }

// SetBytesAcked records the flow's acknowledged payload bytes, as seen
// by the sender. Emitters call it just before Terminate so a terminated
// flow's record carries its partial progress; a flow that only finishes
// reports its full size.
func (r Ref) SetBytesAcked(n int64) {
	cl := r.cell()
	cl.termB, cl.termBSet = n, true
}

// ActiveAt counts flows that have started at or before now and neither
// finished nor terminated by now — the probers' active-flow series. The
// bound is on virtual instants, so the count is exact at any now, not
// just the caller's current clock.
func (c *Collector) ActiveAt(now sim.Time) int {
	n := 0
	for _, cl := range c.cells {
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
	for _, cl := range c.cells {
		if cl.finishAt < 0 && cl.termAt < 0 {
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

// doneAt returns the virtual instant the flow resolved at: the winning
// endpoint's stamp. Negative means still in flight.
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

// Resolved returns the merged results — final counter totals — of the
// newest max resolved flows, in order of the instant each resolved at,
// registration order breaking ties, and how many older ones it left out.
// The trace plane cuts a run's flow records with it (trace.CellTrace.
// CutFlows) once the engine has stopped.
func (c *Collector) Resolved(max int) (rs []Result, dropped int) {
	done := make([]*cell, 0, len(c.cells))
	for _, cl := range c.cells {
		if cl.doneAt() >= 0 {
			done = append(done, cl)
		}
	}
	slices.SortStableFunc(done, func(a, b *cell) int { return cmp.Compare(a.doneAt(), b.doneAt()) })
	if n := len(done) - max; n > 0 {
		dropped, done = n, done[n:]
	}
	rs = make([]Result, len(done))
	for i, cl := range done {
		rs[i] = cl.merged()
	}
	return rs, dropped
}

// Get returns the current result for a flow.
func (c *Collector) Get(id uint64) Result { return c.Of(id).cell().merged() }

// Results returns a snapshot of all results in registration order.
func (c *Collector) Results() []Result {
	out := make([]Result, len(c.cells))
	for i, cl := range c.cells {
		out[i] = cl.merged()
	}
	return out
}
