package sim

import (
	"container/heap"
	"math/rand"
	"slices"
	"testing"

	"pdq/internal/obsv"
)

// refEvent / refEngine form a trusted reference implementation of the event
// queue on top of container/heap, mirroring the pre-pooling engine: one
// heap-allocated record per event ordered by the full (at, ta, tie, seq)
// key. The differential tests below drive the engine and this reference
// through identical schedule/cancel/run interleavings and require the
// exact same execution order and Cancel outcomes.
type refEvent struct {
	key
	id   int
	idx  int
	dead bool
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	switch {
	case a.at != b.at:
		return a.at < b.at
	case a.ta != b.ta:
		return a.ta < b.ta
	case a.tie != b.tie:
		return a.tie < b.tie
	}
	return a.seq < b.seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].idx = i
	h[j].idx = j
}
func (h *refHeap) Push(x any) {
	ev := x.(*refEvent)
	ev.idx = len(*h)
	*h = append(*h, ev)
}
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.idx = -1
	*h = old[:n-1]
	return ev
}

type refEngine struct {
	now    Time
	seq    uint64
	events refHeap
}

func (r *refEngine) at(t, ta Time, tie uint64, id int) *refEvent {
	ev := &refEvent{key: key{at: t, ta: ta, tie: tie, seq: r.seq}, id: id}
	r.seq++
	heap.Push(&r.events, ev)
	return ev
}

func (r *refEngine) cancel(ev *refEvent) bool {
	if ev == nil || ev.dead || ev.idx < 0 {
		return false
	}
	ev.dead = true
	heap.Remove(&r.events, ev.idx)
	return true
}

// runUntil pops events with at <= end in (time, seq) order, stopping after
// stopAfter events when stopAfter > 0 (the Halt analogue). It returns the
// fired ids in order.
func (r *refEngine) runUntil(end Time, stopAfter int) []int {
	var fired []int
	for len(r.events) > 0 {
		next := r.events[0]
		if next.at > end {
			r.now = end
			return fired
		}
		heap.Pop(&r.events)
		r.now = next.at
		fired = append(fired, next.id)
		if stopAfter > 0 && len(fired) >= stopAfter {
			return fired
		}
	}
	return fired
}

// TestDifferentialAgainstContainerHeap drives both engines through many
// random interleavings of At, Cancel (of live, fired, and already-canceled
// refs), partial runs (Halt from inside a callback), and full drains,
// checking that execution order, Pending counts, and every Cancel verdict
// agree event for event. Firing and canceling recycle pool slots, so later
// Cancel attempts on spent handles also exercise the generation-staleness
// guard against slot reuse.
func TestDifferentialAgainstContainerHeap(t *testing.T) {
	for trial := 0; trial < 300; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		s := New()
		ref := &refEngine{}

		type handle struct {
			ref *refEvent
			got EventRef
		}
		live := map[int]handle{} // id → handles, still scheduled
		var spent []handle       // fired or canceled: Cancel must refuse
		var liveIDs []int        // deterministic iteration order for live
		var fired []int
		nextID := 0
		stopAfter := 0 // fire Halt after this many events when > 0

		schedule := func() {
			id := nextID
			nextID++
			at := s.Now() + Time(rng.Intn(50))
			rev := ref.at(at, s.Now(), 0, id)
			got := s.At(at, func() {
				fired = append(fired, id)
				if stopAfter > 0 && len(fired) >= stopAfter {
					s.Halt()
				}
			})
			live[id] = handle{rev, got}
			liveIDs = append(liveIDs, id)
		}
		// retire moves fired ids out of live so their handles become stale.
		retire := func() {
			for _, id := range fired {
				if h, ok := live[id]; ok {
					delete(live, id)
					spent = append(spent, h)
				}
			}
			kept := liveIDs[:0]
			for _, id := range liveIDs {
				if _, ok := live[id]; ok {
					kept = append(kept, id)
				}
			}
			liveIDs = kept
		}

		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 5 || len(liveIDs) == 0 && r < 8: // schedule
				schedule()
			case r < 7: // cancel a random live handle
				id := liveIDs[rng.Intn(len(liveIDs))]
				h := live[id]
				want := ref.cancel(h.ref)
				if got := s.Cancel(h.got); got != want {
					t.Fatalf("trial %d op %d: Cancel(live) = %v, ref says %v", trial, op, got, want)
				}
				// Double-cancel through the same handle must refuse.
				if s.Cancel(h.got) {
					t.Fatalf("trial %d op %d: double Cancel succeeded", trial, op)
				}
				delete(live, id)
				spent = append(spent, h)
			case r < 8 && len(spent) > 0: // cancel a spent (stale) handle
				h := spent[rng.Intn(len(spent))]
				if s.Cancel(h.got) {
					t.Fatalf("trial %d op %d: Cancel of spent handle succeeded (generation guard broken)", trial, op)
				}
				if ref.cancel(h.ref) {
					t.Fatal("reference engine canceled a spent event")
				}
			default: // run to a horizon, sometimes halting mid-run
				stopAfter = 0
				if rng.Intn(2) == 0 {
					stopAfter = 1 + rng.Intn(3)
				}
				fired = fired[:0]
				end := s.Now() + Time(rng.Intn(80))
				want := ref.runUntil(end, stopAfter)
				s.RunUntil(end)
				if len(fired) != len(want) {
					t.Fatalf("trial %d op %d: fired %v, ref fired %v", trial, op, fired, want)
				}
				for i := range fired {
					if fired[i] != want[i] {
						t.Fatalf("trial %d op %d: execution order diverged at %d: %v vs %v", trial, op, i, fired, want)
					}
				}
				retire()
				stopAfter = 0
			}
			if s.Pending() != len(ref.events) {
				t.Fatalf("trial %d op %d: Pending() = %d, ref has %d", trial, op, s.Pending(), len(ref.events))
			}
		}

		// Drain both completely and compare the tail.
		fired = fired[:0]
		want := ref.runUntil(MaxTime-1, 0)
		s.RunUntil(MaxTime - 1)
		if len(fired) != len(want) {
			t.Fatalf("trial %d drain: fired %d events, ref fired %d", trial, len(fired), len(want))
		}
		for i := range fired {
			if fired[i] != want[i] {
				t.Fatalf("trial %d drain: order diverged at %d: %v vs %v", trial, i, fired, want)
			}
		}
		if s.Pending() != 0 {
			t.Fatalf("trial %d: %d events left after drain", trial, s.Pending())
		}
		// All handles are now stale; none may cancel.
		for id, h := range live {
			if s.Cancel(h.got) {
				t.Fatalf("trial %d: Cancel of fired event %d succeeded after drain", trial, id)
			}
		}
	}
}

// firedEvent is one pop as a lockstep run observed it.
type firedEvent struct {
	id int
	key
}

// lockstep drives engine s (nothing scheduled yet) and the reference
// through a random history that holds about depth events pending, and
// returns the pop sequence. The history is built to reach the tie fallback
// of the heap's child selection: every time sits on a coarse grid, so
// sibling groups mostly share at; ta differs by whole grid steps (and is
// backdated through the stamped entry point, as a chained delivery is),
// tie is drawn from four values, and seq decides what is left. Events
// enter through At, AtRunner and AtRunnerStamped, from the driver and from
// inside callbacks; callbacks also cancel, and runs are cut short by a
// horizon or by Halt.
//
// Callbacks are shaped after the heap's lazy pop, whose hole at the root is
// open from the start of a callback to its first schedule: they schedule
// none, one or many events, cancel another event before and after the
// first schedule, and a keyed event that was scheduled for its own instant
// opens with a tie-0 timer at now — a key that orders before the stale
// root it overwrites.
//
// The reference is stepped from inside the engine's callbacks: every pop
// must be the reference's minimum, with Now, EventSeq, EventTa and EventTie
// reading that event's key. Every Cancel verdict is compared as it
// happens, and Pending on both sides of every callback's schedules.
//
// Besides the pop sequence, lockstep returns how many callbacks opened
// with a key ordering before their own event's, so fixed histories can
// check they still reach that case.
func lockstep(t *testing.T, s *Sim, depth int, seed int64) (fired []firedEvent, beforeRoot int) {
	const grid = 1000
	rng := rand.New(rand.NewSource(seed))
	ref := &refEngine{}
	type handle struct {
		ev  *refEvent
		ref EventRef
	}
	var handles []handle // every cancellable event scheduled so far, live or spent
	nextID := 0
	haltAfter := 0 // Halt once this many more events have fired, when > 0
	halted := false
	draining := false

	cancelOne := func() {
		if len(handles) == 0 {
			return
		}
		// Recent handles are mostly live, old ones mostly spent.
		recent := len(handles) - rng.Intn(min(len(handles), 2*depth+8)) - 1
		h := handles[recent]
		want := ref.cancel(h.ev)
		if got := s.Cancel(h.ref); got != want {
			t.Fatalf("depth %d: Cancel of event %d = %v, reference says %v", depth, h.ev.id, got, want)
		}
		if s.Cancel(h.ref) {
			t.Fatalf("depth %d: second Cancel of event %d succeeded", depth, h.ev.id)
		}
	}
	checkPending := func(id int) {
		if s.Pending() != len(ref.events) {
			t.Fatalf("depth %d: Pending() = %d inside the callback of event %d, reference holds %d", depth, s.Pending(), id, len(ref.events))
		}
	}
	var schedule func()
	var timerNow func()
	onFire := func(id int) {
		if len(ref.events) == 0 {
			t.Fatalf("depth %d: engine fired event %d, reference is empty", depth, id)
		}
		want := heap.Pop(&ref.events).(*refEvent)
		if want.id != id {
			t.Fatalf("depth %d: pop %d fired event %d, reference pops %d %+v", depth, len(fired), id, want.id, want.key)
		}
		if got := (key{s.Now(), s.EventTa(), s.EventTie(), s.EventSeq()}); got != want.key {
			t.Fatalf("depth %d: event %d sees key %+v inside its callback, scheduled with %+v", depth, id, got, want.key)
		}
		fired = append(fired, firedEvent{id, want.key})
		checkPending(id)
		if !draining {
			if rng.Intn(8) == 0 {
				cancelOne()
			}
			n := [...]int{0, 1, 1, 2, 2, 6}[rng.Intn(6)]
			if want.tie != 0 && want.ta == want.at && n > 0 {
				timerNow()
				beforeRoot++
				n--
			}
			for ; n > 0 && s.Pending() < depth+6; n-- {
				schedule()
			}
			if rng.Intn(8) == 0 {
				cancelOne()
			}
			checkPending(id)
		}
		if haltAfter > 0 {
			if haltAfter--; haltAfter == 0 {
				s.Halt()
				halted = true
			}
		}
	}
	timerNow = func() {
		id := nextID
		nextID++
		now := s.Now()
		handles = append(handles, handle{ref.at(now, now, 0, id), s.At(now, func() { onFire(id) })})
	}
	schedule = func() {
		id := nextID
		nextID++
		now := s.Now()
		at := now + grid*Time(rng.Intn(4))
		fn := func() { onFire(id) }
		switch rng.Intn(4) {
		case 0:
			handles = append(handles, handle{ref.at(at, now, 0, id), s.At(at, fn)})
		case 1:
			handles = append(handles, handle{ref.at(at, now, 0, id), s.AtRunner(at, funcRunner(fn))})
		case 2:
			tie := uint64(1 + rng.Intn(3))
			handles = append(handles, handle{ref.at(at, now, tie, id), s.AtRunnerStamped(at, now, tie, funcRunner(fn))})
		default:
			ta := max(0, now-grid*Time(rng.Intn(3)))
			tie := uint64(rng.Intn(4))
			handles = append(handles, handle{ref.at(at, ta, tie, id), s.AtRunnerStamped(at, ta, tie, funcRunner(fn))})
		}
	}

	// Up to 300 driver steps, or until the queue has turned over ten times.
	for op := 0; op < 300 && len(fired) < 10*depth+300; op++ {
		for s.Pending() < depth {
			schedule()
		}
		if rng.Intn(10) < 3 {
			cancelOne()
		} else {
			// Most runs stop after a few events; a run to the horizon at
			// full depth fires a quarter of the queue.
			haltAfter, halted = 0, false
			if rng.Intn(3) > 0 {
				haltAfter = 1 + rng.Intn(4)
			}
			end := s.Now() + grid*Time(rng.Intn(2))
			s.RunUntil(end)
			// A run that was not halted leaves nothing at or before its
			// horizon, and the clock on the horizon if anything is left.
			if !halted && len(ref.events) > 0 {
				if next := ref.events[0]; next.at <= end {
					t.Fatalf("depth %d: RunUntil(%v) returned with event %d due at %v", depth, end, next.id, next.at)
				}
				if s.Now() != end {
					t.Fatalf("depth %d: RunUntil(%v) left the clock at %v", depth, end, s.Now())
				}
			}
		}
		if s.Pending() != len(ref.events) {
			t.Fatalf("depth %d op %d: Pending() = %d, reference holds %d", depth, op, s.Pending(), len(ref.events))
		}
	}
	haltAfter, draining = 0, true
	s.Run()
	if s.Pending() != 0 || len(ref.events) != 0 {
		t.Fatalf("depth %d: %d events left after the drain, reference holds %d", depth, s.Pending(), len(ref.events))
	}
	for _, h := range handles {
		if s.Cancel(h.ref) {
			t.Fatalf("depth %d: Cancel of event %d succeeded after the drain", depth, h.ev.id)
		}
	}
	return fired, beforeRoot
}

// tiedTimer re-arms itself one grid period later under its own tie, the
// allocation-free shape of a netsim delivery.
type tiedTimer struct {
	s      *Sim
	period Time
	tie    uint64
}

func (r *tiedTimer) RunEvent() { r.s.AtRunnerStamped(r.s.Now()+r.period, r.s.Now(), r.tie, r) }

// TestDifferentialFullKeyForcedTies runs the lockstep history at the heap
// shapes that matter — a lone event, a partial last sibling group, a few
// levels, and the depth of a 1024-host cell — and requires the heap's pop
// sequence to be the reference's, ties included. It then checks that a heap
// of that depth, with the same forced ties, pops and re-arms without
// allocating.
func TestDifferentialFullKeyForcedTies(t *testing.T) {
	for _, depth := range []int{1, 5, 300, 20000} {
		if depth > 300 && testing.Short() {
			continue
		}
		onHeap, beforeRoot := lockstep(t, New(), depth, int64(depth))
		if depth > 1 && beforeRoot == 0 {
			t.Errorf("depth %d: no callback opened with a key ordering before its own event's; the history no longer reaches that case", depth)
		}
		ties := 0
		for i := range onHeap {
			if i > 0 && onHeap[i].at == onHeap[i-1].at {
				ties++
			}
		}
		if depth > 1 && ties < len(onHeap)/2 {
			t.Errorf("depth %d: only %d of %d pops shared at with their predecessor; the history no longer forces ties", depth, ties, len(onHeap))
		}

		s := New()
		for i := 0; i < depth; i++ {
			r := &tiedTimer{s: s, period: Time(1+i%3) * 1000, tie: uint64(i % 4)}
			s.AtRunnerStamped(Time(i%5)*1000, 0, r.tie, r)
		}
		for i := 0; i < 2*depth; i++ {
			s.Step()
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for i := 0; i < 1000; i++ {
				s.Step()
			}
		}); allocs != 0 {
			t.Errorf("depth %d: 1000 steady-state pops allocate %.0f times, want 0", depth, allocs)
		}
	}
}

// TestDifferentialReusedStorage hands event storage on the way finished
// cells do (Sim.Yield, Sim.Reuse). The donor runs a lockstep history of its
// own and yields with events still pending. The storage it yields holds no
// callback, and none of the donor's EventRefs, fired or pending, cancels
// anything of the engine that takes it, with an event in every slot. Handed
// on once more, the storage runs the lockstep history a fresh engine runs,
// key for key.
func TestDifferentialReusedStorage(t *testing.T) {
	for _, depth := range []int{1, 5, 300, 20000} {
		if depth > 300 && testing.Short() {
			continue
		}
		donor := New()
		lockstep(t, donor, depth, int64(depth)+1)
		var refs []EventRef
		for i := 0; i < depth+8; i++ {
			refs = append(refs, donor.At(donor.Now()+Time(i), func() {}))
		}
		donor.RunUntil(donor.Now() + Time(depth/2+4))
		if donor.Pending() == 0 {
			t.Fatalf("depth %d: donor yields with nothing pending", depth)
		}
		st := donor.Yield()
		if len(st.pool) < depth || len(st.order) != 0 || len(st.free) != len(st.pool) {
			t.Fatalf("depth %d: yielded %d records, %d queued, %d free", depth, len(st.pool), len(st.order), len(st.free))
		}
		for i, ev := range st.pool {
			if ev.runner != nil || ev.idx != -1 {
				t.Fatalf("depth %d: yielded record %d still holds an event", depth, i)
			}
		}

		taker := New()
		taker.Reuse(st)
		fired := 0
		for range st.pool {
			taker.At(1, func() { fired++ })
		}
		for _, r := range refs {
			if taker.Cancel(r) {
				t.Fatalf("depth %d: the donor's ref %+v canceled an event of the engine that took its storage", depth, r)
			}
		}
		taker.Run()
		if fired != len(st.pool) {
			t.Fatalf("depth %d: %d of %d events fired after the donor's refs were tried", depth, fired, len(st.pool))
		}

		reused := New()
		reused.Reuse(taker.Yield())
		fresh, _ := lockstep(t, New(), depth, int64(depth))
		if got, _ := lockstep(t, reused, depth, int64(depth)); !slices.Equal(got, fresh) {
			t.Fatalf("depth %d: reused storage fired %d events, a fresh engine %d, or in another order", depth, len(got), len(fresh))
		}
	}
}

// TestEventRefGenerationReuse pins the slot-recycling guarantee directly: a
// ref whose event fired must not cancel the event that reuses its slot.
func TestEventRefGenerationReuse(t *testing.T) {
	s := New()
	ran := 0
	r1 := s.At(1, func() { ran++ })
	s.Run()
	if ran != 1 {
		t.Fatalf("first event ran %d times", ran)
	}
	// The freed slot is recycled by the next At.
	r2 := s.At(2, func() { ran += 10 })
	if s.Cancel(r1) {
		t.Fatal("stale ref canceled a recycled slot")
	}
	s.Run()
	if ran != 11 {
		t.Fatalf("recycled event did not run (ran=%d)", ran)
	}
	if s.Cancel(r2) {
		t.Fatal("Cancel succeeded after event fired")
	}
}

// TestScheduleSteadyStateAllocs verifies the zero-allocation contract: once
// the pool has warmed up, schedule/fire cycles must not allocate. The
// callback is a pre-bound closure, as the hot paths in netsim and the
// protocol senders use. Its first schedule refills the root hole its own
// event left and its second is pushed at the end, so both ways into the
// heap are covered, along with a cancel on either side of the refill.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	s := New()
	st := &obsv.EngineStats{}
	s.SetStats(st)
	var fn func()
	nop := func() {}
	var spare EventRef
	n := 0
	fn = func() {
		if n++; n < 1000 {
			if n%3 == 0 {
				s.Cancel(spare)
			}
			s.After(3, fn)
			if n%3 == 1 {
				s.Cancel(spare)
			}
			spare = s.After(5, nop)
		}
	}
	s.After(1, fn)
	s.Run()
	if r := st.Refilled.Value(); r == 0 || r >= st.Scheduled.Value() {
		t.Fatalf("%d of %d schedules refilled the root, want some and not all", r, st.Scheduled.Value())
	}
	n = 0
	allocs := testing.AllocsPerRun(100, func() {
		n = 0
		s.After(1, fn)
		s.Run()
	})
	if allocs > 0 {
		t.Errorf("steady-state schedule/fire allocates %.1f times per run, want 0", allocs)
	}
}
