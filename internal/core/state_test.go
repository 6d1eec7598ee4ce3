package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/sim"
)

// testState builds a linkState over a 1 Gbps link, carved by a
// SwitchLogic of its own.
func testState(t *testing.T, cfg Config) *linkState {
	t.Helper()
	n := netsim.NewNetwork(sim.New(), 1)
	a := n.NewHost()
	b := n.NewHost()
	l := n.NewDuplexLink(a, b)
	return NewSwitchLogic(&cfg, nil, 0).state(l)
}

// add admits key and returns its entry, or nil when admit refuses it.
func add(st *linkState, now sim.Time, key flowKey, c Criticality) *flowInfo {
	if i := st.admit(now, key, c); i >= 0 {
		return st.flows[i]
	}
	return nil
}

// listInvariants returns what is wrong with a link's flow list, or nil. It
// asserts only what holds after every packet:
//   - the list is sorted under the comparator and has no duplicate key;
//   - it is no longer than M, nor than the capacity the last admit trimmed
//     it to (it only shrinks between admissions; κ may fall under it);
//   - κ and ΣRTT equal a fresh walk;
//   - no listed entry is also on the spare list.
//
// Three stronger per-port checks fail on real runs and are not asserted
// (ROADMAP item 1): Σ committed rate ≤ link rate, length ≤ min(2κ, M) at
// every instant, and no less critical flow sending behind one paused at
// the port.
func listInvariants(st *linkState) error {
	if n := len(st.flows); n > st.maxList || n > st.bound {
		return fmt.Errorf("list length %d over M = %d or the admitted bound %d", n, st.maxList, st.bound)
	}
	kappa, rtt := 0, sim.Time(0)
	for i, f := range st.flows {
		if i > 0 && st.less(f.crit(), st.flows[i-1].crit()) {
			return fmt.Errorf("entry %d (flow %v) more critical than entry %d", i, f.key, i-1)
		}
		for _, g := range st.flows[:i] {
			if g.key == f.key {
				return fmt.Errorf("flow %v listed twice", f.key)
			}
		}
		for _, g := range st.pool.spare {
			if g == f {
				return fmt.Errorf("flow %v both listed and spare", f.key)
			}
		}
		if f.rate > 0 {
			kappa++
		}
		rtt += f.rtt
	}
	if kappa != st.kappa || rtt != st.rttSum {
		return fmt.Errorf("running κ = %d, ΣRTT = %v; a walk gives %d, %v", st.kappa, st.rttSum, kappa, rtt)
	}
	return nil
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
		f := add(st, 0, fk(uint64(i+1)), critOf(uint64(i+1), sim.Time(v+1)*sim.Millisecond))
		if f != nil {
			st.setRate(f, 1) // keep κ (and the cap) growing so nobody is evicted
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
	a := add(st, 0, fk(1), critOf(1, 10))
	b := add(st, 0, fk(2), critOf(2, 20))
	if a == nil || b == nil {
		t.Fatal("first two flows must be admitted")
	}
	// A third, less critical flow must be rejected (RCP fallback case).
	if add(st, 0, fk(3), critOf(3, 30)) != nil {
		t.Fatal("third flow admitted beyond 2κ bound")
	}
	// A more critical flow evicts the tail.
	c := add(st, 0, fk(4), critOf(4, 5))
	if c == nil {
		t.Fatal("more critical flow rejected")
	}
	if st.find(fk(2)) >= 0 {
		t.Fatal("least critical flow not evicted")
	}
	// One sending flow → κ=1 → capacity still 2; two sending → 4.
	st.setRate(a, 500_000_000)
	if st.capacity() != 2 {
		t.Fatalf("capacity = %d with κ=1, want 2", st.capacity())
	}
	st.setRate(c, 500_000_000)
	if st.capacity() != 4 {
		t.Fatalf("capacity = %d with κ=2, want 4", st.capacity())
	}
}

func TestCapacityCappedByMaxList(t *testing.T) {
	st := testState(t, Full())
	st.maxList = 3
	for i := uint64(1); i <= 5; i++ {
		if f := add(st, 0, fk(i), critOf(i, sim.Time(i))); f != nil {
			st.setRate(f, 1_000_000)
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
	f1 := add(st, 0, fk(1), critOf(1, 10*sim.Millisecond))
	f1.demand = 400_000_000
	st.setRate(f1, 1)
	f2 := add(st, 0, fk(2), critOf(2, 20*sim.Millisecond))
	f2.demand = 800_000_000
	st.setRate(f2, 1)
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
	f := add(st, 0, fk(1), critOf(1, 10))
	f.demand = 1_000_000_000
	st.setRate(f, 1_000_000_000)
	st.setRTT(f, 150*sim.Microsecond)
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
	a := add(st, 0, fk(1), critOf(1, 10*sim.Millisecond))
	st.setRate(a, 1)
	b := add(st, 0, fk(2), critOf(2, 20*sim.Millisecond))
	st.setRate(b, 1)
	if st.find(fk(1)) != 0 {
		t.Fatal("flow 1 should lead")
	}
	// Flow 2 progresses below flow 1's remaining time: must move up.
	b.ttrans = 5 * sim.Millisecond
	if idx := st.reposition(st.find(b.key)); idx != 0 {
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
	f := add(st, 0, fk(1), critOf(1, 10))
	f.seen = 0
	st.expireStale(protocol.StaleTimeout * 2)
	if st.find(fk(1)) >= 0 {
		t.Fatal("stale flow not evicted")
	}
}

func TestRCPFallbackSharesLeftover(t *testing.T) {
	st := testState(t, Full())
	// Listed flow using 60% of the link.
	f := add(st, 0, fk(1), critOf(1, 10*sim.Millisecond))
	f.demand = 600_000_000
	st.setRate(f, 600_000_000)
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

// Property: after any sequence of admits, evictions, repositions and rate
// changes, the list stays sorted, within capacity, and duplicate-free, its
// running sums match a walk, and no entry is both listed and on the spare
// list, or spare twice.
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
				st.reposition(i)
				if op%3 == 0 {
					st.setRate(fi, int64(op)*1000)
				}
				if op%7 == 0 {
					st.remove(key)
				}
			} else {
				add(st, now, key, Criticality{Deadline: noDeadline, TTrans: tt, Key: key})
			}
			// Invariants.
			if len(st.flows) > st.maxList || listInvariants(st) != nil {
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
			for _, fi := range append(append([]*flowInfo{}, st.flows...), st.pool.spare...) {
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
			f := add(st, 0, fk(id), critOf(id, sim.Time(rng.Intn(1000)+1)*sim.Microsecond))
			if f == nil {
				continue
			}
			st.setRate(f, int64(rng.Intn(1_000_000_000)))
			f.demand = int64(rng.Intn(1_000_000_000))
			st.setRTT(f, sim.Time(rng.Intn(300)+1)*sim.Microsecond)
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

// TestSuppressedProbingInterval pins Suppressed Probing (§3.3.2): the
// acknowledgment of the flow at list index i leaves the switch with I_S
// raised to X·(i+1) RTTs, X = 0.2, and never lowered; without SP it passes
// untouched.
func TestSuppressedProbingInterval(t *testing.T) {
	x := 0.2
	for _, sp := range []bool{true, false} {
		n := netsim.NewNetwork(sim.New(), 1)
		sw, h := n.NewSwitch(), n.NewHost()
		l := n.NewDuplexLink(sw, h)
		cfg := Full()
		cfg.SuppressedProbing = sp
		logic := NewSwitchLogic(&cfg, n.Arena(), len(n.Links()))
		send := func(kind netsim.Kind, id int, hdr netsim.SchedHeader) netsim.SchedHeader {
			in, out := l, l
			if !kind.Forward() {
				in, out = l.Peer, nil
			}
			logic.Process(sw, &netsim.Packet{Flow: netsim.FlowID(id), Kind: kind, Hdr: &hdr}, in, out)
			return hdr
		}
		// Flows 1 and 2 send, so κ = 2 lists flow 3 too, at index 2.
		for id := 1; id <= 3; id++ {
			send(netsim.DATA, id, netsim.SchedHeader{Rate: 1e9, PauseBy: netsim.PauseNone, TTrans: sim.Time(id) * sim.Millisecond})
			send(netsim.ACK, id, netsim.SchedHeader{Rate: 4e8, PauseBy: netsim.PauseNone})
		}
		if got, _ := logic.StateOf(l); got != 3 {
			t.Fatalf("list holds %d flows, want 3", got)
		}
		for i, id := range []int{1, 2, 3} {
			want := x * float64(i+1)
			if !sp {
				want = 0.1
			}
			got := send(netsim.ACK, id, netsim.SchedHeader{Rate: 4e8, PauseBy: netsim.PauseNone, InterProbe: 0.1})
			if math.Abs(got.InterProbe-want) > 1e-9 {
				t.Errorf("SP %v: flow at index %d leaves with I_S = %v RTTs, want %v", sp, i, got.InterProbe, want)
			}
			if got := send(netsim.ACK, id, netsim.SchedHeader{Rate: 4e8, PauseBy: netsim.PauseNone, InterProbe: 5}); got.InterProbe != 5 {
				t.Errorf("SP %v: I_S lowered from 5 to %v RTTs", sp, got.InterProbe)
			}
		}
	}
}
