package core

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/sim"
)

// testState builds a linkState over a 1 Gbps link.
func testState(t *testing.T, cfg Config) *linkState {
	t.Helper()
	n := netsim.NewNetwork(sim.New(), 1)
	a := n.NewHost()
	b := n.NewHost()
	l := n.NewDuplexLink(a, b)
	return newLinkState(&cfg, a.ID(), l)
}

func fk(id uint64) flowKey { return flowKey{netsim.FlowID(id), 0} }

func critOf(id uint64, ttrans sim.Time) Criticality {
	return Criticality{Deadline: noDeadline, TTrans: ttrans, Key: fk(id)}
}

func TestAdmitKeepsSortedOrder(t *testing.T) {
	st := testState(t, Full())
	// Admit in shuffled criticality order.
	rng := rand.New(rand.NewSource(3))
	tt := rng.Perm(10)
	for i, v := range tt {
		f := st.admit(0, fk(uint64(i+1)), critOf(uint64(i+1), sim.Time(v+1)*sim.Millisecond))
		if f != nil {
			f.rate = 1 // keep κ (and the cap) growing so nobody is evicted
		}
	}
	if !sort.SliceIsSorted(st.flows, func(i, j int) bool {
		return st.flows[i].crit().Less(st.flows[j].crit())
	}) {
		t.Fatal("flow list not sorted by criticality")
	}
}

func TestAdmitEnforces2Kappa(t *testing.T) {
	st := testState(t, Full())
	// No sending flows: κ=0 → capacity floor 2.
	if st.capacity() != 2 {
		t.Fatalf("capacity = %d, want 2", st.capacity())
	}
	a := st.admit(0, fk(1), critOf(1, 10))
	b := st.admit(0, fk(2), critOf(2, 20))
	if a == nil || b == nil {
		t.Fatal("first two flows must be admitted")
	}
	// A third, less critical flow must be rejected (RCP fallback case).
	if st.admit(0, fk(3), critOf(3, 30)) != nil {
		t.Fatal("third flow admitted beyond 2κ bound")
	}
	// A more critical flow evicts the tail.
	c := st.admit(0, fk(4), critOf(4, 5))
	if c == nil {
		t.Fatal("more critical flow rejected")
	}
	if st.find(fk(2)) >= 0 {
		t.Fatal("least critical flow not evicted")
	}
	// One sending flow → κ=1 → capacity still 2; two sending → 4.
	a.rate = 500_000_000
	if st.capacity() != 2 {
		t.Fatalf("capacity = %d with κ=1, want 2", st.capacity())
	}
	c.rate = 500_000_000
	if st.capacity() != 4 {
		t.Fatalf("capacity = %d with κ=2, want 4", st.capacity())
	}
}

func TestCapacityCappedByMaxList(t *testing.T) {
	st := testState(t, Full())
	st.maxList = 3
	for i := uint64(1); i <= 5; i++ {
		if f := st.admit(0, fk(i), critOf(i, sim.Time(i))); f != nil {
			f.rate = 1_000_000
		}
	}
	if len(st.flows) > 3 {
		t.Fatalf("list length %d exceeds M = 3", len(st.flows))
	}
	if st.capacity() > 3 {
		t.Fatalf("capacity %d exceeds M", st.capacity())
	}
}

func TestAvailbwWaterfillsDemands(t *testing.T) {
	st := testState(t, Full())
	// Most critical flow demands 400 Mbps, second 800 Mbps.
	f1 := st.admit(0, fk(1), critOf(1, 10*sim.Millisecond))
	f1.demand = 400_000_000
	f1.rate = 1
	f2 := st.admit(0, fk(2), critOf(2, 20*sim.Millisecond))
	f2.demand = 800_000_000
	f2.rate = 1
	// Flow at index 0 sees full C.
	if got := st.availbw(0); got != st.c {
		t.Fatalf("availbw(0) = %d, want %d", got, st.c)
	}
	// Index 1 sees C − 400M.
	if got, want := st.availbw(1), st.c-400_000_000; got != want {
		t.Fatalf("availbw(1) = %d, want %d", got, want)
	}
	// Index 2 sees C − 400M − min(800M, rest) = 0 (clamped).
	if got := st.availbw(2); got != 0 {
		t.Fatalf("availbw(2) = %d, want 0", got)
	}
}

func TestAvailbwEarlyStartExcludesNearlyDone(t *testing.T) {
	st := testState(t, Full())
	f := st.admit(0, fk(1), critOf(1, 10))
	f.demand = 1_000_000_000
	f.rate = 1_000_000_000
	f.rtt = 150 * sim.Microsecond
	// Not nearly done: blocks everything.
	f.ttrans = 10 * sim.Millisecond
	if got := st.availbw(1); got != 0 {
		t.Fatalf("availbw = %d, want 0 while critical flow runs", got)
	}
	// Nearly done (T < K·RTT): excluded, successor may start early.
	f.ttrans = 100 * sim.Microsecond
	if got := st.availbw(1); got != st.c {
		t.Fatalf("availbw = %d, want %d under Early Start", got, st.c)
	}
	// With Early Start disabled the flow still blocks.
	st.cfg.EarlyStart = false
	if got := st.availbw(1); got != 0 {
		t.Fatalf("availbw = %d, want 0 with ES disabled", got)
	}
}

func TestRepositionOnShrinkingTTrans(t *testing.T) {
	st := testState(t, Full())
	a := st.admit(0, fk(1), critOf(1, 10*sim.Millisecond))
	a.rate = 1
	b := st.admit(0, fk(2), critOf(2, 20*sim.Millisecond))
	b.rate = 1
	if st.find(fk(1)) != 0 {
		t.Fatal("flow 1 should lead")
	}
	// Flow 2 progresses below flow 1's remaining time: must move up.
	b.ttrans = 5 * sim.Millisecond
	if idx := st.reposition(b); idx != 0 {
		t.Fatalf("repositioned index %d, want 0", idx)
	}
	if st.find(fk(1)) != 1 {
		t.Fatal("flow 1 should now trail")
	}
}

func TestDampeningWindow(t *testing.T) {
	st := testState(t, Full())
	if st.dampened(0, fk(1)) {
		t.Fatal("dampened before any accept")
	}
	st.noteAccept(1000, fk(1))
	if st.dampened(1001, fk(1)) {
		t.Fatal("same flow must not be dampened")
	}
	if !st.dampened(1001, fk(2)) {
		t.Fatal("other flow inside window should be dampened")
	}
	after := 1000 + dampening + 1
	if st.dampened(after, fk(2)) {
		t.Fatal("dampening did not expire")
	}
}

func TestRateControllerDrainsQueue(t *testing.T) {
	st := testState(t, Full())
	if st.c != st.link.Rate {
		t.Fatalf("initial C = %d", st.c)
	}
	// Simulate a standing queue by enqueueing packets that have not
	// drained yet (no sim run), then forcing a controller update.
	for i := 0; i < 20; i++ {
		st.link.Enqueue(&netsim.Packet{Wire: 1500, Path: []*netsim.Link{st.link}})
	}
	st.lastCUpdate = -sim.Second // force
	st.maybeUpdateC(sim.Second)
	if st.c >= st.link.Rate {
		t.Fatalf("C = %d did not drop below link rate with %d B queued", st.c, st.link.QueueWaiting())
	}
	if st.c < 0 {
		t.Fatal("C negative")
	}
}

func TestRateControllerPeriod(t *testing.T) {
	st := testState(t, Full())
	st.maybeUpdateC(1000)
	first := st.lastCUpdate
	// Within 2 RTTs: no update.
	st.maybeUpdateC(1000 + st.avgRTT())
	if st.lastCUpdate != first {
		t.Fatal("controller updated before 2 RTTs elapsed")
	}
	st.maybeUpdateC(1000 + 2*st.avgRTT() + 1)
	if st.lastCUpdate == first {
		t.Fatal("controller did not update after 2 RTTs")
	}
}

func TestStaleEviction(t *testing.T) {
	st := testState(t, Full())
	f := st.admit(0, fk(1), critOf(1, 10))
	f.seen = 0
	st.expireStale(protocol.StaleTimeout * 2)
	if st.find(fk(1)) >= 0 {
		t.Fatal("stale flow not evicted")
	}
}

func TestRCPFallbackSharesLeftover(t *testing.T) {
	st := testState(t, Full())
	// Listed flow using 60% of the link.
	f := st.admit(0, fk(1), critOf(1, 10*sim.Millisecond))
	f.demand = 600_000_000
	f.rate = 600_000_000
	r1 := st.rcpRate(fk(10))
	if r1 <= 0 || r1 > 400_000_000 {
		t.Fatalf("fallback rate %d, want (0, 400M]", r1)
	}
	// Second fallback flow halves the share.
	r2 := st.rcpRate(fk(11))
	if r2 <= 0 || r2 > r1 {
		t.Fatalf("second fallback rate %d vs first %d", r2, r1)
	}
	// Saturated link: fallback pauses.
	f.demand = st.c
	if got := st.rcpRate(fk(12)); got != 0 {
		t.Fatalf("fallback rate %d on saturated link, want 0", got)
	}
}

func TestMinGrantRoundsDown(t *testing.T) {
	st := testState(t, Full())
	if mg := st.minGrant(); mg != int64(0.01*float64(st.link.Rate)) {
		t.Fatalf("minGrant = %d", mg)
	}
}

// Property: after any sequence of admits, evictions and repositions, the
// list stays sorted, within capacity, and duplicate-free, and no entry is
// both listed and on the free list, or free twice.
func TestPropertyListInvariants(t *testing.T) {
	f := func(ops []uint16) bool {
		st := testState(t, Full())
		st.maxList = 8
		now := sim.Time(0)
		for _, op := range ops {
			now += 10
			id := uint64(op%13) + 1
			tt := sim.Time(op%97+1) * sim.Microsecond
			key := fk(id)
			if i := st.find(key); i >= 0 {
				fi := st.flows[i]
				fi.ttrans = tt
				st.reposition(fi)
				if op%3 == 0 {
					fi.rate = int64(op) * 1000
				}
				if op%7 == 0 {
					st.remove(key)
				}
			} else {
				st.admit(now, key, Criticality{Deadline: noDeadline, TTrans: tt, Key: key})
			}
			// Invariants.
			if len(st.flows) > st.maxList {
				return false
			}
			seen := map[flowKey]bool{}
			for _, fi := range st.flows {
				if seen[fi.key] {
					return false
				}
				seen[fi.key] = true
			}
			owned := map[*flowInfo]bool{}
			for _, fi := range append(append([]*flowInfo{}, st.flows...), st.free...) {
				if owned[fi] {
					return false
				}
				owned[fi] = true
			}
			if !sort.SliceIsSorted(st.flows, func(i, j int) bool {
				return st.flows[i].crit().Less(st.flows[j].crit())
			}) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: availbw is non-increasing in list index (a less critical flow
// never sees more bandwidth than a more critical one).
func TestPropertyAvailbwMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 200; trial++ {
		st := testState(t, Full())
		n := 1 + rng.Intn(10)
		for i := 0; i < n; i++ {
			id := uint64(i + 1)
			f := st.admit(0, fk(id), critOf(id, sim.Time(rng.Intn(1000)+1)*sim.Microsecond))
			if f == nil {
				continue
			}
			f.rate = int64(rng.Intn(1_000_000_000))
			f.demand = int64(rng.Intn(1_000_000_000))
			f.rtt = sim.Time(rng.Intn(300)+1) * sim.Microsecond
		}
		prev := st.availbw(0)
		for j := 1; j <= len(st.flows); j++ {
			cur := st.availbw(j)
			if cur > prev {
				t.Fatalf("trial %d: availbw(%d)=%d > availbw(%d)=%d", trial, j, cur, j-1, prev)
			}
			prev = cur
		}
	}
}
