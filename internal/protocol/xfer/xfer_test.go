package xfer

import (
	"fmt"
	"math/rand"
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// fixedRate is a trivial rate header for tests.
type fixedRate struct{ Rate int64 }

// testHooks grants a constant (adjustable) rate. probeRTTs and stopAfter
// exercise the two optional hooks.
type testHooks struct {
	Pacer
	rate      int64
	probeRTTs float64
	stopAfter int64 // stop the flow from AfterAck once this many bytes are acked; 0 = never
}

func (h *testHooks) Stamp(pkt *netsim.Packet)          { netsim.HeaderOf[fixedRate](pkt).Rate = h.rate }
func (h *testHooks) Feedback(pkt *netsim.Packet) int64 { return h.rate }
func (h *testHooks) ProbeRTTs() float64                { return h.probeRTTs }
func (h *testHooks) AfterAck() bool {
	w := h.Window()
	if h.stopAfter == 0 || w.Flow.Size-w.Remaining() < h.stopAfter {
		return false
	}
	w.Stop(netsim.TERM)
	return true
}

// rig is a window with one pacer per path and a receiver, wired to the
// hosts of tp. kinds, segs and bySub count the forward packets arriving at
// the receiver: by kind, and data packets by segment and by subflow.
type rig struct {
	tp    *topo.Topology
	w     *Window
	hooks []*testHooks
	recv  *Receiver
	kinds map[netsim.Kind]int
	segs  map[int64]int
	bySub map[int]int
}

func newRig(t *testing.T, tp *topo.Topology, src, dst int, size, rate int64, paths [][]*netsim.Link) *rig {
	t.Helper()
	f := workload.Flow{ID: 1, Src: src, Dst: dst, Size: size}
	tel := workload.NewCollector()
	tel.Register(f)
	cfg := Config{}.WithDefaults()
	r := &rig{tp: tp, kinds: map[netsim.Kind]int{}, segs: map[int64]int{}, bySub: map[int]int{}}
	r.recv = NewReceiver(tp.Hosts[dst], tel, f, len(paths), func(*netsim.Packet, int64) {})
	r.w = NewWindow(tp.Hosts[src], tel, &cfg, f)
	for _, path := range paths {
		h := &testHooks{rate: rate, probeRTTs: 1}
		r.w.Attach(&h.Pacer, path, h)
		r.hooks = append(r.hooks, h)
	}
	tp.Hosts[src].Agent = agentFunc(func(pkt *netsim.Packet, _ *netsim.Link) {
		if !pkt.Kind.Forward() {
			r.w.HandleAck(pkt)
		}
		pkt.Release()
	})
	tp.Hosts[dst].Agent = agentFunc(func(pkt *netsim.Packet, _ *netsim.Link) {
		r.kinds[pkt.Kind]++
		if pkt.Kind == netsim.DATA {
			r.segs[pkt.Seq]++
			r.bySub[pkt.Subflow]++
		}
		r.recv.OnForward(pkt)
	})
	return r
}

func (r *rig) start() {
	for _, h := range r.hooks {
		h.Start()
	}
}

// harness is the one-path rig over a single-bottleneck star.
func harness(t *testing.T, size, rate int64) *rig {
	tp := topo.SingleBottleneck(1, 1)
	return newRig(t, tp, 0, 1, size, rate, [][]*netsim.Link{tp.Path(tp.Hosts[0], tp.Hosts[1])})
}

type agentFunc func(*netsim.Packet, *netsim.Link)

func (f agentFunc) Receive(pkt *netsim.Packet, l *netsim.Link) { f(pkt, l) }

func TestTransferCompletes(t *testing.T) {
	r := harness(t, 300<<10, 1_000_000_000)
	r.start()
	r.tp.Sim().RunUntil(sim.Second)
	if !r.recv.Done() {
		t.Fatal("receiver incomplete")
	}
	if !r.w.Over() {
		t.Fatal("sender did not complete")
	}
	if r.w.Remaining() != 0 {
		t.Fatalf("remaining = %d", r.w.Remaining())
	}
	if r.kinds[netsim.TERM] != 1 {
		t.Fatalf("receiver saw %d TERMs, want 1", r.kinds[netsim.TERM])
	}
}

func TestPacingMatchesRate(t *testing.T) {
	// At 100 Mbps, 100 KB should take ≈8.5 ms (plus handshake), not the
	// ~1 ms it would at line rate.
	r := harness(t, 100<<10, 100_000_000)
	r.start()
	r.tp.Sim().RunUntil(sim.Second)
	if !r.recv.Done() {
		t.Fatal("incomplete")
	}
	// The last event time approximates completion.
	if got := r.tp.Sim().Now(); got < 8*sim.Millisecond {
		t.Fatalf("completed too fast for 100 Mbps pacing: %v", got)
	}
}

func TestZeroRatePausesAndProbes(t *testing.T) {
	r := harness(t, 100<<10, 0)
	r.start()
	r.tp.Sim().RunUntil(2 * sim.Millisecond)
	if r.kinds[netsim.PROBE] < 5 {
		t.Fatalf("paused sender sent %d probes in 2 ms, want ~1/RTT", r.kinds[netsim.PROBE])
	}
	if r.recv.Done() || r.kinds[netsim.DATA] != 0 {
		t.Fatal("flow progressed despite zero rate")
	}
	// Unpause and let it finish.
	r.hooks[0].rate = 1_000_000_000
	r.tp.Sim().RunUntil(sim.Second)
	if !r.recv.Done() {
		t.Fatal("flow did not resume after unpause")
	}
}

// TestProbeIntervalHonoursMultiplier pins the ProbeRTTs hook (PDQ's
// Suppressed Probing): a paused pacer told to probe every 4 RTTs sends a
// quarter of the probes, and a multiplier below 1 means one RTT.
func TestProbeIntervalHonoursMultiplier(t *testing.T) {
	probes := func(mult float64) int {
		r := harness(t, 100<<10, 0)
		r.hooks[0].probeRTTs = mult
		r.start()
		r.tp.Sim().RunUntil(4 * sim.Millisecond)
		return r.kinds[netsim.PROBE]
	}
	every, floor, fourth := probes(1), probes(0.2), probes(4)
	if floor != every {
		t.Errorf("multiplier 0.2 sent %d probes, want the every-RTT count %d", floor, every)
	}
	if fourth < every/4-1 || fourth > every/4+1 {
		t.Errorf("multiplier 4 sent %d probes, want about a quarter of %d", fourth, every)
	}
}

// TestPacersShareOneWindow pins the multipath contract: N pacers drawing
// from one window never send a segment twice, and the flow completes on
// the union of their acknowledgments.
func TestPacersShareOneWindow(t *testing.T) {
	tp := topo.BCube(2, 3, 1)
	paths := tp.Paths(tp.Hosts[0], tp.Hosts[15], 3)
	if len(paths) < 2 {
		t.Fatalf("BCube offered %d paths, need at least 2", len(paths))
	}
	r := newRig(t, tp, 0, 15, 2<<20, 1_000_000_000, paths)
	r.start()
	tp.Sim().RunUntil(sim.Second)
	if !r.recv.Done() || !r.w.Over() {
		t.Fatal("multipath transfer incomplete")
	}
	if want := numPackets(r.w.Flow.Size); len(r.segs) != want {
		t.Fatalf("receiver saw %d distinct segments, want %d", len(r.segs), want)
	}
	for seq, n := range r.segs {
		if n != 1 {
			t.Fatalf("segment at %d sent %d times on a loss-free network", seq, n)
		}
	}
	for i := range paths {
		if r.bySub[i] == 0 {
			t.Errorf("subflow %d carried no data", i)
		}
	}
	if r.kinds[netsim.TERM] != len(paths) {
		t.Errorf("receiver saw %d TERMs, want one per path (%d)", r.kinds[netsim.TERM], len(paths))
	}
}

// TestAfterAckCanStopTheFlow pins the post-accounting hook (PDQ's Early
// Termination): it sees the updated byte count, its stop ends the flow,
// and nothing is scheduled afterwards.
func TestAfterAckCanStopTheFlow(t *testing.T) {
	r := harness(t, 10<<20, 1_000_000_000)
	r.hooks[0].stopAfter = 100 << 10
	r.start()
	r.tp.Sim().RunUntil(sim.Second)
	if !r.w.Over() {
		t.Fatal("AfterAck's stop did not end the flow")
	}
	acked := r.w.Flow.Size - r.w.Remaining()
	if acked < 100<<10 || acked >= 100<<10+netsim.MSS {
		t.Errorf("stopped at %d acked bytes, want the first ack reaching %d", acked, 100<<10)
	}
	if r.kinds[netsim.TERM] != 1 {
		t.Errorf("receiver saw %d TERMs, want 1", r.kinds[netsim.TERM])
	}
	if n := r.tp.Sim().Pending(); n != 0 {
		t.Errorf("%d events still pending after the flow stopped and the network drained", n)
	}
}

func TestLossRecovery(t *testing.T) {
	r := harness(t, 200<<10, 1_000_000_000)
	l := r.tp.Hosts[1].Access.Peer
	l.LossRate = 0.05
	l.Peer.LossRate = 0.05
	r.start()
	r.tp.Sim().RunUntil(10 * sim.Second)
	if !r.recv.Done() {
		t.Fatal("transfer lost under 5% bidirectional loss")
	}
}

func TestStopReleases(t *testing.T) {
	r := harness(t, 10<<20, 1_000_000_000)
	r.start()
	r.tp.Sim().RunUntil(2 * sim.Millisecond)
	r.w.Stop(netsim.TERM)
	if !r.w.Over() {
		t.Fatal("Stop did not mark sender over")
	}
	before := r.tp.Sim().Processed()
	r.tp.Sim().RunUntil(sim.Second)
	// Only the in-flight tail should drain; no new sends after Stop.
	if r.tp.Sim().Processed()-before > 200 {
		t.Fatalf("too many events after Stop: %d", r.tp.Sim().Processed()-before)
	}
}

// refWindow is the send window's state machine as it was before its memory
// followed the outstanding span, frozen as the reference for
// TestWindowMatchesPerPacketReference: an acknowledged flag and a send time
// for every packet of the flow, allocated when the flow starts.
type refWindow struct {
	size    int64
	acked   []bool     // per packet
	sentAt  []sim.Time // last transmission time per packet; 0 = never
	ackedN  int
	ackedB  int64
	nextPkt int
	base    int
	dup     int
}

func newRefWindow(size int64) *refWindow {
	n := numPackets(size)
	return &refWindow{size: size, acked: make([]bool, n), sentAt: make([]sim.Time, n)}
}

// pick is sendOne's choice of packet.
func (r *refWindow) pick(now, rto sim.Time) (idx int, retx bool, wake sim.Time) {
	switch {
	case r.base < r.nextPkt && r.base < len(r.acked) && !r.acked[r.base] &&
		r.sentAt[r.base] > 0 && now-r.sentAt[r.base] > rto:
		return r.base, true, 0
	case r.nextPkt < len(r.acked):
		r.nextPkt++
		return r.nextPkt - 1, false, 0
	case r.base < len(r.acked):
		wake := r.sentAt[r.base] + rto + 1
		if wake <= now {
			wake = now + 1
		}
		return -1, false, wake
	}
	return -1, false, 0
}

// ack is HandleAck's accounting of an acknowledged packet.
func (r *refWindow) ack(idx int) {
	if idx >= 0 && idx < len(r.acked) && !r.acked[idx] {
		r.acked[idx] = true
		r.ackedN++
		r.ackedB += int64(payload(r.size, len(r.acked), idx))
		old := r.base
		for r.base < len(r.acked) && r.acked[r.base] {
			r.base++
		}
		if r.base != old {
			r.dup = 0
		}
	}
}

// hole is fastRetransmit's decision.
func (r *refWindow) hole(ackedIdx int, now, rtt sim.Time) bool {
	if r.base >= len(r.acked) || r.acked[r.base] || r.sentAt[r.base] == 0 {
		return false
	}
	if ackedIdx <= r.base || now-r.sentAt[r.base] < rtt {
		return false
	}
	r.dup++
	if r.dup < 3 {
		return false
	}
	r.dup = 0
	return true
}

// TestWindowMatchesPerPacketReference drives Window's state machine — the
// bitmap, the send-time ring — beside the per-packet reference through
// random histories: transmissions under changing timeouts, acknowledgments
// in random order, lost packets and lost acknowledgments, duplicate and
// out-of-range acknowledgments, fast retransmissions and jumps to the RTO
// wake. Every choice of what to send and when to wake, every fast
// retransmit verdict and the send time of base must be the reference's.
func TestWindowMatchesPerPacketReference(t *testing.T) {
	var seen struct{ sends, retx, fast, wakes, reordered, dups, drops, grown int }
	for trial := 0; trial < 400; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		size := 1 + rng.Int63n(700*netsim.MSS)
		w := &Window{Flow: workload.Flow{Size: size}, n: numPackets(size), acked: NewBitset(numPackets(size))}
		ref := newRefWindow(size)
		var net []int // transmitted packets not yet acknowledged or lost, in send order
		now, wake := sim.Time(1), sim.Time(0)
		rto := sim.Time(0)
		send := func(idx int) {
			w.stamp(idx, now)
			ref.sentAt[idx] = now
			net = append(net, idx)
		}
		for op := 0; op < 4000 && ref.base < len(ref.acked); op++ {
			at := fmt.Sprintf("trial %d (%d packets) op %d", trial, w.n, op)
			now += sim.Time(rng.Intn(40)) * sim.Microsecond
			switch k := rng.Intn(20); {
			case k < 8: // the pacer's send timer
				rto = sim.Time(1+rng.Intn(4)) * sim.Millisecond
				idx, retx, wk := w.pick(now, rto)
				ridx, rretx, rwk := ref.pick(now, rto)
				if idx != ridx || retx != rretx || wk != rwk {
					t.Fatalf("%s: pick = (%d, %v, %v), reference (%d, %v, %v)", at, idx, retx, wk, ridx, rretx, rwk)
				}
				if idx >= 0 {
					send(idx)
					seen.sends++
					if retx {
						seen.retx++
					}
				}
				wake = wk
			case k < 9 && wake > now: // sleep until the RTO wake
				now = wake
				seen.wakes++
			case k < 17 && len(net) > 0: // a packet arrives, or is lost
				i := 0
				if rng.Intn(3) == 0 {
					i = rng.Intn(len(net))
					seen.reordered++
				}
				idx := net[i]
				net = append(net[:i], net[i+1:]...)
				if rng.Intn(10) == 0 {
					seen.drops++
					break
				}
				if ref.acked[idx] {
					seen.dups++
				}
				w.ack(idx)
				ref.ack(idx)
				rtt := sim.Time(50+rng.Intn(300)) * sim.Microsecond
				fast := w.hole(idx, now, rtt)
				if rfast := ref.hole(idx, now, rtt); fast != rfast {
					t.Fatalf("%s: hole(%d) = %v, reference %v", at, idx, fast, rfast)
				}
				if fast {
					send(w.base)
					seen.fast++
				}
			default: // a stray acknowledgment: a copy of a packet sent, or of none of the flow's
				idx := []int{-1, w.n}[rng.Intn(2)]
				if w.nextPkt > 0 && rng.Intn(2) == 0 {
					idx = rng.Intn(w.nextPkt)
				}
				w.ack(idx)
				ref.ack(idx)
				if w.hole(idx, now, 0) != ref.hole(idx, now, 0) {
					t.Fatalf("%s: hole(%d) on a stray ack differs from the reference", at, idx)
				}
				seen.dups++
			}
			if w.base != ref.base || w.nextPkt != ref.nextPkt || w.dup != ref.dup || w.ackedN != ref.ackedN || w.ackedB != ref.ackedB {
				t.Fatalf("%s: base %d next %d dup %d acked %d/%dB, reference %d %d %d %d/%dB", at,
					w.base, w.nextPkt, w.dup, w.ackedN, w.ackedB, ref.base, ref.nextPkt, ref.dup, ref.ackedN, ref.ackedB)
			}
			if ref.base < len(ref.sentAt) && w.sentAt(w.base) != ref.sentAt[ref.base] {
				t.Fatalf("%s: base %d sent at %v, reference %v", at, w.base, w.sentAt(w.base), ref.sentAt[ref.base])
			}
		}
		if len(w.sent) > ringMin {
			seen.grown++
		}
	}
	t.Logf("%+v", seen)
	if seen.sends == 0 || seen.retx == 0 || seen.fast == 0 || seen.wakes == 0 || seen.reordered == 0 ||
		seen.dups == 0 || seen.drops == 0 || seen.grown == 0 {
		t.Errorf("the histories miss a case: %+v", seen)
	}
}
