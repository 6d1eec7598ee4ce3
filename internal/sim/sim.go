// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine is the substrate for the packet-level network simulator used to
// reproduce the PDQ paper (Hong et al., SIGCOMM 2012). Events are ordered by
// the four-field key (at, ta, tie, seq) — firing time, scheduling instant,
// structural channel key, and a sequence number assigned at schedule time
// (see key and DESIGN.md §1) — so simulations are fully
// deterministic: the same seed and the same schedule produce the same
// execution, event for event.
//
// Internally the queue is a slot-pooled indexed 4-ary min-heap: callback
// records live in a flat slice and are recycled through a free list on fire
// or cancel, heap entries carry the event key and the record's slot, so a
// steady-state simulation schedules events without allocating (DESIGN.md
// §2). The pop is lazy: a fired entry stays at the root as a hole for the
// callback's first schedule to overwrite (see Sim.hole). EventRef is a
// (slot, generation) handle: recycling a slot bumps its generation, so a
// stale handle held after its event fired can never cancel the slot's next
// occupant.
//
// Time is an integer number of nanoseconds since the start of the
// simulation. At 1 Gbps one bit lasts one nanosecond, so nanosecond
// resolution is exact for the link rates the paper uses.
package sim

import (
	"fmt"
	"math"
	"sync/atomic" //pdqlint:cellsafe-ok the watchdog interrupt flag is per engine; Interrupt is its only cross-goroutine writer

	"pdq/internal/obsv"
)

// Time is a simulation timestamp in nanoseconds since simulation start.
type Time int64

// Duration is a span of simulation time in nanoseconds.
type Duration = Time

// Handy duration units.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// MaxTime is the largest representable simulation time.
const MaxTime Time = math.MaxInt64

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Millis reports t as a floating-point number of milliseconds.
func (t Time) Millis() float64 { return float64(t) / float64(Millisecond) }

// Micros reports t as a floating-point number of microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String formats the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", t.Millis())
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Micros())
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// FromSeconds converts a floating-point number of seconds to a Time.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// Runner is an event callback, the one kind the pooled event record
// holds. Scheduling a Runner with AtRunner stores the interface value
// directly in the record, so hot paths that fire one event per object
// (netsim's deliveries: the packet is the callback) stay allocation-free:
// boxing a pointer into an interface does not allocate.
type Runner interface {
	// RunEvent is invoked when the event fires.
	RunEvent()
}

// funcRunner is the Runner At stores a closure as. A func value is one
// pointer, so storing it in the interface does not allocate either.
type funcRunner func()

func (f funcRunner) RunEvent() { f() }

// key is the engine's event order: (at, ta, tie, seq), compared
// lexicographically. It lives once per scheduled event, in its heap entry,
// never in the pooled record.
//
// at is the firing time and ta the scheduling instant: the simulation time
// at which the event was scheduled. tie is the structural tie-break key: 0
// for locally scheduled events (timers), and a nonzero channel key —
// (link+1)<<32 | per-link counter for netsim deliveries — for channel
// events.
//
// ta and tie only order events that share an instant (DESIGN.md §1):
// same-at events order first by their scheduling instants, and same-(at,
// ta) coincidences by the structural key — the producing channel's identity
// and its private counter. Locally scheduled events carry tie 0, so at a
// full (at, ta) coincidence local timers fire before channel deliveries.
// seq, assigned at schedule time, decides the rest. A chained netsim
// delivery is scheduled later than its packet was accepted, under the ta
// and tie stamped at acceptance, so it orders where one event per packet
// would have.
//
// key is four words on purpose: the compiler keeps a struct of at most
// four fields in registers, so the entry being sifted never round-trips
// through the stack.
type key struct {
	at  Time
	ta  Time
	tie uint64
	seq uint64
}

// less reports whether k orders before o. Sequence numbers are unique, so
// this is a strict total order and the pop sequence is independent of the
// queue's internal layout. The receiver is the register side (the entry
// being placed), o the memory side: its fields are loaded only as far as
// the comparison reaches.
func (k key) less(o *key) bool {
	if k.at != o.at {
		return k.at < o.at
	}
	if k.ta != o.ta {
		return k.ta < o.ta
	}
	if k.tie != o.tie {
		return k.tie < o.tie
	}
	return k.seq < o.seq
}

// entry is one scheduled event in the heap: its key and the pool slot
// holding its callback.
type entry struct {
	key
	slot int32
}

// event is a pooled scheduled-callback record. Records are recycled through
// Sim.free; gen distinguishes successive occupants of the same slot. The
// event's key lives in its heap entry, which idx locates.
type event struct {
	runner Runner
	idx    int32  // position in Sim.order, -1 while free or firing
	gen    uint32 // bumped on every release; see EventRef
}

// EventRef identifies a scheduled event so it can be canceled. The zero
// EventRef is invalid. A ref is a (slot, generation) handle into the pool
// of the Sim that issued it: once the event fires or is canceled the slot's
// generation advances, so retained refs become harmless no-ops rather than
// resurrecting whatever event reuses the slot. Refs are only meaningful on
// the Sim that returned them.
type EventRef struct {
	slot int32 // pool index + 1, so the zero ref stays invalid
	gen  uint32
}

// Sim is a discrete-event simulator. The zero value is ready to use.
// Sim is not safe for concurrent use; the whole simulation runs in one
// goroutine by design (see DESIGN.md §5).
type Sim struct {
	now       Time
	seq       uint64
	firing    uint64  // seq of the executing event + 1, 0 when idle (see EventSeq)
	firingTa  Time    // ta of the executing event, valid while firing != 0
	firingTie uint64  // tie of the executing event, valid while firing != 0
	pool      []event // slot-indexed event records
	free      []int32 // recycled slots
	order     []entry // 4-ary min-heap of scheduled events, keyed by (at, ta, tie, seq)
	nRun      uint64
	halted    bool

	// hole is the lazy pop (DESIGN.md §2): while the engine runs a
	// callback, the fired entry is still order[0] — stale, its slot already
	// released — and the callback's first schedule overwrites it with one
	// siftDown instead of a remove followed by append and siftUp. Nothing
	// ever compares against the stale root: siftDown(0, …) looks only at
	// children, and whatever else reads the heap closes the hole with
	// heapRemove(0) first — Cancel, the end of fire, and RunUntil and Step
	// before they look at the head (a callback that panicked leaves it
	// open). So the hole needs no assumption about how the new key orders
	// against the fired one.
	hole bool

	// maxEvents, when nonzero, bounds the total number of events this Sim
	// may execute; exceeding it panics with EventLimitError. It is the
	// deterministic half of the runaway-cell watchdog (DESIGN.md §11).
	maxEvents uint64
	// interrupted is the wall-clock watchdog flag, set from any goroutine
	// via Interrupt and polled by RunUntil every interruptStride events.
	interrupted atomic.Bool

	// stats, when non-nil, receives event-loop counters (DESIGN.md §13):
	// a sweep runs every engine counted, into the block of the cell record
	// it works for. The block is plain and owned by this Sim's goroutine,
	// read only once the run is over, so counting costs one predictable
	// branch and a few adds per hot operation and no synchronization.
	stats *obsv.EngineStats
}

// interruptStride is how often (in events) RunUntil polls the interrupt
// flag: a power of two so the check compiles to a mask, rare enough that
// the atomic load is invisible in the event-loop profile.
const interruptStride = 1024

// EventLimitError is the panic value RunUntil raises when the event budget
// set by SetMaxEvents is exhausted. The sweep executor converts it into a
// NaN cell plus a diagnostic instead of crashing the process.
type EventLimitError struct {
	Events uint64 // events executed when the budget tripped
	At     Time   // simulation time at the trip point
}

func (e EventLimitError) Error() string {
	return fmt.Sprintf("sim: event budget exhausted after %d events at t=%v", e.Events, e.At)
}

// InterruptError is the panic value RunUntil raises after Interrupt was
// called — typically by a wall-clock watchdog armed outside the engine.
type InterruptError struct {
	Events uint64 // events executed when the interrupt was observed
	At     Time   // simulation time at the interrupt point
}

func (e InterruptError) Error() string {
	return fmt.Sprintf("sim: run interrupted after %d events at t=%v", e.Events, e.At)
}

// SetMaxEvents bounds the total number of events the Sim may execute; once
// Processed reaches n, RunUntil panics with EventLimitError. Zero (the
// default) means unlimited. The bound is on the Sim's lifetime event count,
// not per RunUntil call, so a budget set before the run covers the whole
// cell regardless of how the horizon is chopped up.
func (s *Sim) SetMaxEvents(n uint64) { s.maxEvents = n }

// Interrupt requests that the running simulation stop with an
// InterruptError panic. Unlike every other Sim method it is safe to call
// from another goroutine: it only sets an atomic flag, which RunUntil polls
// between events. The panic surfaces on the simulation goroutine within
// interruptStride events; an idle Sim panics on its next RunUntil.
func (s *Sim) Interrupt() { s.interrupted.Store(true) }

// New returns a new simulator with the clock at zero.
func New() *Sim { return &Sim{} }

// SetStats attaches an event-loop instrument block; nil detaches it.
// The block must only be read while the Sim is quiescent (between
// RunUntil calls) — it is bumped with plain writes from the simulation
// goroutine.
func (s *Sim) SetStats(st *obsv.EngineStats) { s.stats = st }

// UseWheel does nothing. The engine has one backend, the heap; UseWheel
// stays only because the benchmark harness's timer kernels still call it,
// and goes when they stop.
func (s *Sim) UseWheel() {}

// Now returns the current simulation time.
func (s *Sim) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.nRun }

// Pending returns the number of events currently scheduled. The event
// being executed is not pending, whether or not its entry still occupies
// the root as a hole.
func (s *Sim) Pending() int {
	if s.hole {
		return len(s.order) - 1
	}
	return len(s.order)
}

// EventSeq is the simulation's logical order point: the sequence number of
// the event currently executing, or — when no event is executing — the next
// sequence number to be assigned, which is greater than every fired event's.
// Together with Now it totally orders any observation against the (time,
// seq) event order. netsim's lazy link accounting settles exact-instant
// ties with EventTa and EventTie alone (DESIGN.md §3); the engine's
// differential test reads all four keys.
func (s *Sim) EventSeq() uint64 {
	if s.firing != 0 {
		return s.firing - 1
	}
	return s.seq
}

// EventTa is the scheduling instant (ta) of the event currently executing,
// or Now when no event is executing. Together with Now and EventTie it
// places an observation in the (at, ta, tie, seq) event order; netsim's
// lazy link accounting settles exact-instant ties with it (DESIGN.md §3).
func (s *Sim) EventTa() Time {
	if s.firing != 0 {
		return s.firingTa
	}
	return s.now
}

// EventTie is the structural tie-break key of the event currently
// executing (0 for local timers, the producing channel key for
// deliveries), or the maximal key when no event is executing — an idle
// observer orders after every same-instant transition, like EventSeq's
// idle value. Together with Now and EventTa it totally orders any
// observation against the (at, ta, tie, seq) event order; netsim's lazy
// link accounting settles exact-instant ties with it (DESIGN.md §3).
func (s *Sim) EventTie() uint64 {
	if s.firing != 0 {
		return s.firingTie
	}
	return ^uint64(0)
}

// place writes the entry (k, slot) at heap position i, field by field: a
// composite literal of five words would be assembled on the stack and
// copied.
func (s *Sim) place(i int, k key, slot int32) {
	e := &s.order[i]
	e.key, e.slot = k, slot
	s.pool[slot].idx = int32(i)
}

// siftUp places the entry (k, slot) at heap position i or above: i is a
// hole, and parents that order after k move down into it. The entry is
// written once, at its final position.
func (s *Sim) siftUp(i int, k key, slot int32) {
	for i > 0 {
		p := (i - 1) / 4
		pe := &s.order[p]
		if !k.less(&pe.key) {
			break
		}
		s.order[i] = *pe
		s.pool[pe.slot].idx = int32(i)
		i = p
	}
	s.place(i, k, slot)
}

// siftDown places the entry (k, slot) at heap position i or below: i is a
// hole, and the least child moves up into it while it orders before k.
//
// Selecting the least of four children is where a pop spends its time, and
// a four-field compare per child is four unpredictable branches. For a full
// group the minimum is therefore taken on at alone, with conditional moves
// instead of branches; only when two children share the least at (counted
// the same way) does the full key decide among them.
func (s *Sim) siftDown(i int, k key, slot int32) {
	n := len(s.order)
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		if first+4 <= n {
			c := s.order[first : first+4 : first+4]
			a0, a1, a2, a3 := c[0].at, c[1].at, c[2].at, c[3].at
			// Two semi-finals and a final; each flag is 1 when the later
			// child is strictly earlier, so b is the first child at least.
			m01, l01 := a0, 0
			if a1 < a0 {
				m01, l01 = a1, 1
			}
			m23, l23 := a2, 0
			if a3 < a2 {
				m23, l23 = a3, 1
			}
			least, l := m01, 0
			if m23 < m01 {
				least, l = m23, 1
			}
			b := l01 + l*(2+l23-l01)
			same := 0
			if a0 == least {
				same++
			}
			if a1 == least {
				same++
			}
			if a2 == least {
				same++
			}
			if a3 == least {
				same++
			}
			if same > 1 {
				// b is the first child at least; the others sit behind it.
				for j := b + 1; j < 4; j++ {
					if c[j].at == least && c[j].less(&c[b].key) {
						b = j
					}
				}
			}
			best = first + b
		} else {
			for c := first + 1; c < n; c++ {
				if s.order[c].less(&s.order[best].key) {
					best = c
				}
			}
		}
		be := &s.order[best]
		if k.less(&be.key) {
			break
		}
		s.order[i] = *be
		s.pool[be.slot].idx = int32(i)
		i = best
	}
	s.place(i, k, slot)
}

// heapRemove deletes heap position i, restoring the heap property: the last
// leaf fills the hole, sifted up if it orders before the hole's parent and
// down otherwise. Removing the last position (which is also how the heap
// empties) touches no other entry.
func (s *Sim) heapRemove(i int) {
	n := len(s.order) - 1
	if i == n {
		s.order = s.order[:n]
		return
	}
	last := &s.order[n]
	k, slot := last.key, last.slot
	s.order = s.order[:n]
	if i > 0 && k.less(&s.order[(i-1)/4].key) {
		s.siftUp(i, k, slot)
	} else {
		s.siftDown(i, k, slot)
	}
}

// closeHole ends a lazy pop nobody refilled: the stale root is removed the
// way an eager pop would have removed it.
func (s *Sim) closeHole() {
	s.hole = false
	s.heapRemove(0)
}

// release recycles a slot: the callback is dropped (so it can be collected)
// and the generation advances, invalidating outstanding refs.
func (s *Sim) release(slot int32) {
	ev := &s.pool[slot]
	ev.runner = nil
	ev.idx = -1
	ev.gen++
	s.free = append(s.free, slot)
}

// schedule grabs a pooled slot for an event at (t, now, tie 0, next seq)
// and puts it in the queue, returning the slot.
func (s *Sim) schedule(t Time) int32 { return s.scheduleStamped(t, s.now, 0) }

// scheduleStamped is schedule with explicit scheduling-instant and
// structural-key stamps: channel producers (netsim links) stamp their
// canonical channel key, and a chained delivery carries the instant its
// packet was accepted. The first schedule of a callback lands in the root
// hole its own event left (Sim.hole); the rest are pushed at the end.
func (s *Sim) scheduleStamped(t, ta Time, tie uint64) int32 {
	if t < s.now {
		s.panicPast(t)
	}
	var slot int32
	if n := len(s.free); n > 0 {
		slot = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.pool = append(s.pool, event{})
		slot = int32(len(s.pool) - 1)
	}
	k := key{at: t, ta: ta, tie: tie, seq: s.seq}
	s.seq++
	if s.hole {
		// Replace-top: the pending count is back to what it was before
		// the pop, so the high-water mark cannot move.
		s.hole = false
		s.siftDown(0, k, slot)
		if s.stats != nil {
			s.stats.Scheduled.Inc()
			s.stats.Refilled.Inc()
		}
		return slot
	}
	// Open a hole at the end and sift the new entry in from registers; it
	// is written once, where it lands.
	n := len(s.order)
	s.order = append(s.order, entry{})
	s.siftUp(n, k, slot)
	if s.stats != nil {
		s.stats.Scheduled.Inc()
		s.stats.QueueHWM.Observe(int64(n + 1))
	}
	return slot
}

// AtRunnerStamped is AtRunner with explicit scheduling-instant and
// structural-key stamps: the event orders as if it had been scheduled at
// instant ta (at or before Now) under channel key tie (see key). Channel
// producers use it: a netsim link stamps each delivery with its canonical
// channel key, and schedules the next delivery of its chain under the
// enqueue instant that packet was accepted at.
func (s *Sim) AtRunnerStamped(t, ta Time, tie uint64, r Runner) EventRef {
	return s.put(s.scheduleStamped(t, ta, tie), r)
}

// put stores r in the record at slot and returns the event's ref.
func (s *Sim) put(slot int32, r Runner) EventRef {
	ev := &s.pool[slot]
	ev.runner = r
	return EventRef{slot: slot + 1, gen: ev.gen}
}

// panicPast is schedule's cold failure path, kept out of the hot
// function so it stays free of fmt.
func (s *Sim) panicPast(t Time) {
	panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
}

// At schedules fn to run at absolute time t. Scheduling in the past (t <
// Now) panics: it is always a logic error in a discrete-event simulation.
func (s *Sim) At(t Time, fn func()) EventRef {
	if fn == nil {
		panic("sim: scheduling nil function")
	}
	return s.put(s.schedule(t), funcRunner(fn))
}

// AtRunner schedules r.RunEvent to run at absolute time t. Unlike At with a
// method value, storing the Runner interface does not allocate, so
// per-object hot paths (a link's ser-done event, a packet's delivery) stay
// allocation-free.
func (s *Sim) AtRunner(t Time, r Runner) EventRef {
	if r == nil {
		panic("sim: scheduling nil runner")
	}
	return s.put(s.schedule(t), r)
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (s *Sim) After(d Duration, fn func()) EventRef { return s.At(s.now+d, fn) }

// Cancel removes a scheduled event. Canceling an already-fired or
// already-canceled event is a no-op. It reports whether the event was
// actually removed.
func (s *Sim) Cancel(r EventRef) bool {
	slot := r.slot - 1
	if slot < 0 || int(slot) >= len(s.pool) {
		return false
	}
	ev := &s.pool[slot]
	if ev.gen != r.gen || ev.idx < 0 {
		return false
	}
	if s.hole {
		// heapRemove sifts the last leaf against parents up to the root,
		// which must therefore be real; closing moves entries, so idx is
		// read afterwards.
		s.closeHole()
	}
	s.heapRemove(int(ev.idx))
	s.release(slot)
	if s.stats != nil {
		s.stats.Cancelled.Inc()
	}
	return true
}

// Halt stops the currently executing Run after the current event returns.
func (s *Sim) Halt() { s.halted = true }

// Run executes events in order until the queue is empty or Halt is called.
func (s *Sim) Run() { s.RunUntil(MaxTime) }

// RunUntil executes events in order while their time is <= end (an event
// scheduled exactly at end still runs), stopping early if the queue
// empties or Halt is called.
//
// End-clock semantics, pinned by TestRunUntilEndClock:
//   - If events remain beyond end, the clock advances to exactly end, so
//     a subsequent RunUntil or After continues from the horizon.
//   - If the queue empties at or before end (or Halt stops the run), the
//     clock stays at the last executed event — it is NOT advanced to
//     end. Callers that need the wall end can read it from their own
//     bookkeeping; advancing to an arbitrary horizon would make MaxTime
//     overflow-prone (Run is RunUntil(MaxTime)).
func (s *Sim) RunUntil(end Time) {
	s.halted = false
	if s.hole {
		// A callback panicked out of fire and the caller recovered.
		s.closeHole()
	}
	for !s.halted {
		next := s.head()
		if next == nil {
			return
		}
		// The budget and the interrupt trip only while events remain, so
		// a drained run never panics on either.
		if s.maxEvents != 0 && s.nRun >= s.maxEvents {
			panic(EventLimitError{Events: s.nRun, At: s.now})
		}
		if s.nRun&(interruptStride-1) == 0 && s.interrupted.Load() {
			panic(InterruptError{Events: s.nRun, At: s.now})
		}
		if next.at > end {
			s.now = end
			return
		}
		s.fire(next)
	}
}

// head returns the earliest pending entry without consuming it, or nil
// when nothing is pending. The pointer is into the heap and is good until
// the next schedule, cancel or fire.
func (s *Sim) head() *entry {
	if len(s.order) == 0 {
		return nil
	}
	return &s.order[0]
}

// fire consumes and executes the entry head returned, recycling its slot
// before the callback runs so the callback can immediately reschedule into
// it. The event's key is published through EventSeq, EventTa and EventTie
// for the duration. The entry is consumed lazily: it stays at the root as
// a hole (Sim.hole) for the callback's first schedule to fill, and is
// removed afterwards if nothing did.
func (s *Sim) fire(head *entry) {
	k, slot := head.key, head.slot
	runner := s.pool[slot].runner
	s.hole = true
	s.release(slot)
	s.now = k.at
	s.nRun++
	if s.stats != nil {
		s.stats.Fired.Inc()
	}
	s.firing = k.seq + 1
	s.firingTa = k.ta
	s.firingTie = k.tie
	runner.RunEvent()
	s.firing = 0
	if s.hole {
		s.closeHole()
	}
}

// Storage is an engine's event storage — callback records, free list and
// heap array — holding no event and no callback. A finished engine gives
// it up with Yield and a fresh one takes it with Reuse, so simulations run
// one after another grow their storage once between them, not once each
// (DESIGN.md §2). The zero Storage is empty.
type Storage struct {
	pool  []event
	free  []int32
	order []entry
}

// Yield ends the engine and returns its storage. Every record drops its
// callback, so nothing the engine ran stays reachable through the storage,
// and advances its generation as a fire would: no EventRef this engine
// issued names a live record wherever the storage goes next. The engine
// keeps its clock and counters, but anything scheduled on it afterwards
// starts from empty storage.
func (s *Sim) Yield() Storage {
	st := Storage{pool: s.pool, free: s.free[:0], order: s.order[:0]}
	for i := range st.pool {
		ev := &st.pool[i]
		ev.runner, ev.idx = nil, -1
		ev.gen++
	}
	// Highest slot first, so the next engine pops slots in the order a
	// fresh pool would append them.
	for i := len(st.pool) - 1; i >= 0; i-- {
		st.free = append(st.free, int32(i))
	}
	s.pool, s.free, s.order, s.hole = nil, nil, nil, false
	return st
}

// Reuse makes st the storage of an engine that has scheduled nothing yet.
func (s *Sim) Reuse(st Storage) {
	if len(s.pool) != 0 {
		panic("sim: Reuse on an engine with storage of its own")
	}
	s.pool, s.free, s.order = st.pool, st.free, st.order
}

// Step executes exactly one event if any is pending and reports whether an
// event was executed.
func (s *Sim) Step() bool {
	if s.hole {
		s.closeHole()
	}
	next := s.head()
	if next == nil {
		return false
	}
	s.fire(next)
	return true
}
