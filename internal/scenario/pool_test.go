package scenario

import (
	"testing"

	"pdq/internal/fault"
	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// poolFlows is a deterministic mixed bag: every host sends to three
// others, sizes from one packet to 300 KB, every third flow with a
// deadline tight enough that Early Termination and D3's quenching end
// some of them by TERM instead of by completion.
func poolFlows(hosts int) []workload.Flow {
	var fs []workload.Flow
	for i := 0; i < 3*hosts; i++ {
		src := i % hosts
		f := workload.Flow{
			ID: uint64(i + 1), Src: src, Dst: (src + 1 + i/hosts*2) % hosts,
			Size:  int64(1000 + (i*7919)%300_000),
			Start: sim.Time(i%7) * 50 * sim.Microsecond,
		}
		if i%3 == 0 {
			f.Deadline = sim.Time(1+i%5) * sim.Millisecond
		}
		fs = append(fs, f)
	}
	return fs
}

// checkPoolBalance runs one registered packet runner the way a sweep cell
// does and requires the packet life cycle to close: every flow over, the
// engine drained, every packet taken from the network's pool released
// exactly once — whatever mix of deliveries, drops and turn-arounds the
// run went through — and every link and flow conserved (conservedLinks,
// conservedFlows).
func checkPoolBalance(t *testing.T, runner string, given map[string]float64, build func() *topo.Topology, rc RunCtx) {
	t.Helper()
	e, p, err := runners.Resolve(runner, given)
	if err != nil {
		t.Fatal(err)
	}
	var tp *topo.Topology
	pending := -1 // until the runner shows its engine
	rc.Horizon = 5 * sim.Second
	rc.inspect = func(tp *topo.Topology) {
		pending = tp.Sim().Pending()
		conservedLinks(t, tp)
	}
	rs := e.Make(p, 1)(func() *topo.Topology { tp = build(); return tp }, poolFlows(len(build().Hosts)), rc)
	conservedFlows(t, tp, rs)
	for _, r := range rs {
		if !r.Done() && !r.Terminated {
			t.Fatalf("flow %d neither finished nor terminated by the horizon", r.ID)
		}
	}
	if pending != 0 {
		t.Fatalf("%d events still pending at the horizon: engine not drained", pending)
	}
	taken, released := tp.Net.PacketPoolStats()
	if taken == 0 {
		t.Fatal("run took no packets from the pool")
	}
	if taken != released {
		t.Errorf("packets taken %d, released %d: %d leaked or released twice", taken, released, int64(taken)-int64(released))
	}
}

// conservedLinks requires every link of tp, at the end of a run, to
// account for every packet offered to it (DESIGN.md §3): each was dropped
// at enqueue — by the queue, a loss coin or a down link — or transmitted,
// or is still queued or in service. A packet a down link loses at
// delivery was transmitted and counts in FaultDrops as well, so the
// identity is exact on a run without link faults and bounds the rest.
// No queue may hold more than its capacity.
func conservedLinks(t *testing.T, tp *topo.Topology) {
	t.Helper()
	for _, l := range tp.Net.Links() {
		offered := l.Offered()
		counted := l.Drops() + l.LossDrops() + l.TxPackets() + uint64(l.QueuedPackets())
		if counted > offered || offered > counted+l.FaultDrops() {
			t.Errorf("%v: %d offered, %d tail-dropped + %d lost + %d transmitted + %d queued, %d fault drops",
				l, offered, l.Drops(), l.LossDrops(), l.TxPackets(), l.QueuedPackets(), l.FaultDrops())
		}
		if q := l.QueueBytes(); q > l.QueueCap {
			t.Errorf("%v: %d bytes queued, capacity %d", l, q, l.QueueCap)
		}
	}
}

// conservedFlows requires every flow of rs whose last byte arrived to have
// taken at least its bytes' serialization at the slower of its two NICs.
func conservedFlows(t *testing.T, tp *topo.Topology, rs []workload.Result) {
	t.Helper()
	for _, r := range rs {
		if r.Finish < 0 {
			continue
		}
		nic := min(tp.Hosts[r.Src].NICRate(), tp.Hosts[r.Dst].NICRate())
		if least := float64(r.Size) * 8 * float64(sim.Second) / float64(nic); float64(r.Finish-r.Start) < least {
			t.Errorf("flow %d: %d bytes in %v, less than %v at %d b/s", r.ID, r.Size, r.Finish-r.Start, sim.Time(least), nic)
		}
	}
}

func tree() *topo.Topology { return topo.SingleRootedTree(3, 3, 1) }

// linkDownWindow fails the last host's access link while the first flows
// have packets in flight on it, and restores it before they give up.
var linkDownWindow = &fault.Schedule{Events: []fault.Event{{Kind: fault.LinkDown, Host: -1,
	Down: 300 * sim.Microsecond, Up: 3 * sim.Millisecond}}}

// TestPacketPoolBalance covers every registered packet-level runner on the
// clean tree, then the paths on which netsim rather than an agent ends a
// packet's life: relaying hosts (M-PDQ on BCube), Bernoulli and
// Gilbert-Elliott loss, a link-down window with packets in flight, and
// tail-drop queues a tenth of an incast deep.
func TestPacketPoolBalance(t *testing.T) {
	var packet []string
	for _, e := range RunnerList() {
		if e.Level == "packet" {
			packet = append(packet, e.Name)
		}
	}
	if len(packet) < 9 {
		t.Fatalf("registry lists only %d packet runners: %v", len(packet), packet)
	}
	lossy := func() *topo.Topology {
		tp := tree()
		l := tp.Hosts[len(tp.Hosts)-1].Access
		l.LossRate, l.Peer.LossRate = 0.03, 0.03
		return tp
	}
	shallow := func() *topo.Topology {
		tp := tree()
		for _, l := range tp.Net.Links() {
			l.QueueCap = 20 * netsim.MTU
		}
		return tp
	}
	ge := &fault.Schedule{Events: []fault.Event{{Kind: fault.GilbertLoss, Host: -1,
		PGB: 0.05, PBG: 0.3, LossBad: 0.5}}}
	for _, c := range []struct {
		name    string
		runners []string
		params  map[string]float64
		build   func() *topo.Topology
		rc      RunCtx
	}{
		{"clean", packet, nil, tree, RunCtx{}},
		{"mpdq-bcube", []string{"PDQ(Full)"}, map[string]float64{"subflows": 3},
			func() *topo.Topology { return topo.BCube(3, 1, 1) }, RunCtx{}},
		{"lossy", packet, nil, lossy, RunCtx{}},
		{"gilbert", packet, nil, tree, RunCtx{Faults: ge}},
		{"link-down", packet, nil, tree, RunCtx{Faults: linkDownWindow}},
		{"shallow-queues", packet, nil, shallow, RunCtx{}},
	} {
		for _, r := range c.runners {
			t.Run(c.name+"/"+r, func(t *testing.T) { checkPoolBalance(t, r, c.params, c.build, c.rc) })
		}
	}
}

// TestPacketPoolBalanceHaltedProbe stops every packet runner — the paced
// ones and the TCP family — the way a search probe stops: RunCtx.Decided
// turning true at a flow outcome, packets in flight, most of them chained
// behind another packet's delivery and known to no event. It requires the
// cut-short run to be sound: the clock inside the horizon, the results read
// with packets still in flight, every link and flow conserved at the stop,
// and the very same engine, resumed, draining to the balance, the clock
// and the event and packet counts of a run that was never stopped — the
// stop cut a prefix and disturbed nothing.
func TestPacketPoolBalanceHaltedProbe(t *testing.T) {
	const horizon = 5 * sim.Second
	for _, e := range RunnerList() {
		if e.Level != "packet" {
			continue
		}
		t.Run(e.Name, func(t *testing.T) {
			flows := poolFlows(len(tree().Hosts))
			// The engines are read inside the runner, before they hand their
			// storage on: the run to the horizon, the stopped run as the
			// runner left it, and that very engine resumed to the horizon.
			var full, stop, resumed engineReading
			e.Make(e.Params, 1)(tree, flows, RunCtx{Horizon: horizon, inspect: func(tp *topo.Topology) { full = readEngine(tp) }})

			outcomes, halts := 0, 0
			rs := e.Make(e.Params, 1)(tree, flows,
				RunCtx{Horizon: horizon, Decided: func(workload.Tally) bool {
					outcomes++
					if outcomes == 5 {
						halts++
						return true
					}
					return false
				}, inspect: func(tp *topo.Topology) {
					stop = readEngine(tp)
					conservedLinks(t, tp)
					tp.Sim().RunUntil(horizon)
					resumed = readEngine(tp)
				}})
			if halts != 1 || stop.pending == 0 || stop.now >= horizon {
				t.Fatalf("probe not stopped mid-run: %d halts, %d events pending at %v", halts, stop.pending, stop.now)
			}
			over := 0
			for _, r := range rs {
				if r.Done() || r.Terminated {
					over++
				}
			}
			if over == 0 || over == len(rs) {
				t.Fatalf("%d of %d flows over at the stop, want some and not all", over, len(rs))
			}
			conservedFlows(t, tree(), rs)
			if stop.released >= stop.taken {
				t.Fatalf("stopped with packets taken %d, released %d: none in flight", stop.taken, stop.released)
			}
			// A link keeps one delivery in the engine and chains the other
			// packets it carries behind it (DESIGN.md §3): more packets in
			// flight than events pending means the stop caught packets no
			// event refers to yet. They count as taken, and the resumed run
			// must still deliver and release every one of them.
			if inFlight := stop.taken - stop.released; inFlight <= uint64(stop.pending) {
				t.Fatalf("stopped with %d packets in flight and %d events pending: no chained packet at the stop", inFlight, stop.pending)
			}
			if resumed.pending != 0 {
				t.Fatalf("%d events pending after resuming to the horizon", resumed.pending)
			}
			if resumed.taken != resumed.released {
				t.Errorf("resumed run: packets taken %d, released %d", resumed.taken, resumed.released)
			}
			if resumed.processed != full.processed || resumed.now != full.now || resumed.taken != full.taken {
				t.Errorf("resumed run: %d events to %v, %d packets; uninterrupted: %d events to %v, %d packets",
					resumed.processed, resumed.now, resumed.taken, full.processed, full.now, full.taken)
			}
		})
	}
}

// engineReading is what a run's engine and packet pool show at one point.
type engineReading struct {
	now             sim.Time
	processed       uint64
	pending         int
	taken, released uint64
}

func readEngine(tp *topo.Topology) engineReading {
	r := engineReading{now: tp.Sim().Now(), processed: tp.Sim().Processed(), pending: tp.Sim().Pending()}
	r.taken, r.released = tp.Net.PacketPoolStats()
	return r
}
