package sim

import (
	"reflect"
	"testing"

	"pdq/internal/obsv"
)

// TestSimStats pins the engine counters on both backends: every
// schedule, fire and cancel is counted, and the queue high-water mark
// sees the deepest pending set.
func TestSimStats(t *testing.T) {
	for _, wheel := range []bool{false, true} {
		s := New()
		if wheel {
			s.UseWheel()
		}
		st := &obsv.EngineStats{}
		s.SetStats(st)

		var refs []EventRef
		for i := 0; i < 5; i++ {
			refs = append(refs, s.At(Time(100+i), func() {}))
		}
		if !s.Cancel(refs[2]) {
			t.Fatal("cancel failed")
		}
		if s.Cancel(refs[2]) {
			t.Fatal("double cancel succeeded")
		}
		s.Run()

		if got := st.Scheduled.Value(); got != 5 {
			t.Errorf("wheel=%v: scheduled = %d, want 5", wheel, got)
		}
		if got := st.Fired.Value(); got != 4 {
			t.Errorf("wheel=%v: fired = %d, want 4", wheel, got)
		}
		if got := st.Cancelled.Value(); got != 1 {
			t.Errorf("wheel=%v: cancelled = %d, want 1", wheel, got)
		}
		if got := st.QueueHWM.Value(); got != 5 {
			t.Errorf("wheel=%v: queue HWM = %d, want 5", wheel, got)
		}
	}
}

// TestSimStatsRefilled pins what the lazy pop reports: a callback's first
// schedule on the heap is counted as a refill, its later ones and every
// schedule from outside a callback are not, the wheel never refills, and
// the high-water mark is the same on both backends: the firing event's
// stale root is not a pending event.
func TestSimStatsRefilled(t *testing.T) {
	for _, wheel := range []bool{false, true} {
		s := New()
		if wheel {
			s.UseWheel()
		}
		st := &obsv.EngineStats{}
		s.SetStats(st)
		const timers, rounds = 3, 10
		fired := 0
		var rearm func()
		rearm = func() {
			if fired++; fired <= timers*(rounds-1) {
				s.After(timers, rearm)
			}
		}
		for i := 0; i < timers; i++ {
			s.At(Time(i), rearm)
		}
		s.At(1000, func() { // one refill, two pushes
			for i := 0; i < 3; i++ {
				s.After(1, func() {})
			}
		})
		s.Run()

		wantRefilled := uint64(timers*(rounds-1) + 1)
		if wheel {
			wantRefilled = 0
		}
		if got := st.Refilled.Value(); got != wantRefilled {
			t.Errorf("wheel=%v: refilled = %d, want %d", wheel, got, wantRefilled)
		}
		if got, want := st.Scheduled.Value(), uint64(timers*rounds+1+3); got != want || st.Fired.Value() != want {
			t.Errorf("wheel=%v: scheduled %d, fired %d, want %d each", wheel, got, st.Fired.Value(), want)
		}
		if got := st.QueueHWM.Value(); got != timers+1 {
			t.Errorf("wheel=%v: queue HWM = %d, want %d", wheel, got, timers+1)
		}
	}
}

// TestShardGroupObserver runs the token model with an observer attached
// and checks (a) the aggregate is consistent with the run — every fired
// event merged, every posted handoff counted, windows and phase time
// recorded — and (b) the observed run's logs are identical to an
// unobserved run's: instrumentation cannot perturb event order.
func TestShardGroupObserver(t *testing.T) {
	const nodes, shards, hops = 13, 4, 60
	const horizon = 500 * Millisecond

	ref, refN := runTokenModel(t, nodes, shards, hops, horizon)

	g := NewShardGroup(shards, testLookahead)
	rt := &obsv.Runtime{}
	var ticks int64
	clock := func() int64 { ticks += 1000; return ticks }
	g.SetObserver(rt, clock)
	ns := make([]*shardNode, nodes)
	for i := range ns {
		sh := i * shards / nodes
		ns[i] = &shardNode{g: g, sim: g.Shard(sh), id: i, shard: sh, nodes: ns}
	}
	var posted uint64
	for i, n := range ns {
		posted++
		g.Post(0, Handoff{
			Due:   Time(100 * (i + 1)),
			Ta:    0,
			Link:  uint32(1000 + i),
			Ctr:   1,
			To:    int32(n.shard),
			Bytes: 100,
			R:     &token{n: n, payload: int64(7919 * (i + 1)), hops: hops},
		})
	}
	g.RunUntil(horizon)

	for i, n := range ns {
		if !reflect.DeepEqual(n.log, ref[i]) {
			t.Fatalf("node %d log diverges under observation", i)
		}
	}
	if g.Processed() != refN {
		t.Fatalf("processed %d events under observation, want %d", g.Processed(), refN)
	}

	s := rt.Snapshot()
	if s.Fired != refN {
		t.Errorf("aggregate fired = %d, want %d", s.Fired, refN)
	}
	if s.Scheduled < s.Fired {
		t.Errorf("scheduled %d < fired %d", s.Scheduled, s.Fired)
	}
	if s.QueueHWM <= 0 {
		t.Errorf("queue HWM = %d, want > 0", s.QueueHWM)
	}
	if s.Windows == 0 {
		t.Error("no windows recorded")
	}
	if s.IdleSkips == 0 {
		// The token model's seed handoffs land at t=100..1300 with later
		// activity spreading out over 500ms against a 1us lookahead, so
		// idle stretches are guaranteed.
		t.Error("no idle skips recorded")
	}
	// Handoffs: the token model posts seed handoffs plus one per hop
	// execution; at minimum the seeds were counted with their bytes.
	if s.Handoffs < posted {
		t.Errorf("handoffs = %d, want >= %d", s.Handoffs, posted)
	}
	if s.HandoffBytes < posted*100 {
		t.Errorf("handoff bytes = %d, want >= %d", s.HandoffBytes, posted*100)
	}
	if s.PhaseNs[obsv.PhaseWindow] == 0 || s.PhaseNs[obsv.PhaseInject] == 0 {
		t.Errorf("phase time missing: %v", s.PhaseNs)
	}
}

// TestShardGroupObserverNilClock checks that a nil clock only disables
// phase timing, not the counters.
func TestShardGroupObserverNilClock(t *testing.T) {
	g := NewShardGroup(2, testLookahead)
	rt := &obsv.Runtime{}
	g.SetObserver(rt, nil)
	// One counter per shard: the two events may share a barrier window,
	// so they run on concurrent engine goroutines.
	var fired [2]int
	g.Shard(0).At(10, func() { fired[0]++ })
	g.Shard(1).At(20, func() { fired[1]++ })
	g.RunUntil(1_000_000)
	s := rt.Snapshot()
	if fired != [2]int{1, 1} || s.Fired != 2 || s.Scheduled != 2 {
		t.Errorf("fired=%v aggregate=%+v", fired, s)
	}
	for i, ns := range s.PhaseNs {
		if ns != 0 {
			t.Errorf("phase %d timed %dns with nil clock", i, ns)
		}
	}
}
