package netsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"pdq/internal/sim"
)

// The reference below is the delivery model the engine ran before links
// chained their deliveries (DESIGN.md §3), frozen here: every accepted
// packet's delivery key (at, ta, tie) is computed at enqueue and handed to
// the engine at once, one keyed event per packet. It drives the same Link
// state — admission, the serializer stamps, advance, the qdiscs — and
// shares nothing with Link.emitDelivery or Packet.RunEvent, the two places
// a chained link decides when the engine learns of a delivery.

// refPacket is a Packet whose delivery event knows no successor.
type refPacket Packet

func (rp *refPacket) RunEvent() {
	p := (*Packet)(rp)
	ingress := p.Path[p.Hop]
	ingress.advance()
	if ingress.down {
		ingress.faultDrops++
		p.Release()
		return
	}
	ingress.To.Receive(p, ingress)
}

// refLink is a Link whose ser-done event (Scheduler path) starts the next
// service through the reference.
type refLink Link

func (rl *refLink) RunEvent() {
	l := (*Link)(rl)
	p := l.serving
	l.qBytes -= p.Wire
	l.txPackets++
	l.txBytes += uint64(p.Wire)
	l.serving = nil
	if next := l.sched.Pop(); next != nil {
		refStartService(l, next)
	}
}

func refEmit(l *Link, pkt *Packet, now, done sim.Time) {
	l.deliveryCtr++
	pkt.enqTa = now
	pkt.enqTie = uint64(l.ID+1)<<32 | uint64(l.deliveryCtr)
	l.net.Sim.AtRunnerStamped(done+l.PropDelay+l.ProcDelay, now, pkt.enqTie, (*refPacket)(pkt))
}

func refStartService(l *Link, pkt *Packet) {
	now := l.net.Sim.Now()
	done := now + l.TxTime(pkt.Wire)
	pkt.serStart, pkt.serDone = now, done
	pkt.qNext = nil
	l.serving = pkt
	l.busyUntil = done
	l.net.Sim.AtRunner(done, (*refLink)(l))
	refEmit(l, pkt, now, done)
}

// refEnqueue is Link.Enqueue with per-packet delivery events.
func refEnqueue(l *Link, pkt *Packet) {
	switch {
	case l.down:
		l.faultDrops++
		pkt.Release()
		return
	case l.LossRate > 0 && l.lossRand().Float64() < l.LossRate:
		l.lossDrops++
		pkt.Release()
		return
	}
	if l.sched != nil {
		if !l.qdisc.Admit(l, pkt, l.qBytes) {
			l.drops++
			pkt.Release()
			return
		}
		l.qdisc.OnEnqueue(l, pkt, l.qBytes)
		l.qBytes += pkt.Wire
		if l.serving == nil {
			refStartService(l, pkt)
		} else {
			l.sched.Push(pkt)
		}
		return
	}
	l.advance()
	q := l.qdisc
	if q == nil {
		q = TailDrop{}
	}
	if !q.Admit(l, pkt, l.qBytes) {
		l.drops++
		pkt.Release()
		return
	}
	q.OnEnqueue(l, pkt, l.qBytes)
	l.qBytes += pkt.Wire
	now := l.net.Sim.Now()
	start := max(now, l.busyUntil)
	done := start + l.TxTime(pkt.Wire)
	l.busyUntil = done
	pkt.serStart, pkt.serDone = start, done
	pkt.qNext = nil
	if l.qHead != nil {
		l.qTail.qNext = pkt
	} else {
		l.qHead = pkt
	}
	l.qTail = pkt
	refEmit(l, pkt, now, done)
}

// linkState is everything a link's accessors report.
type linkState struct {
	QueueBytes, QueueWaiting     int
	TxBytes, TxPackets           uint64
	Drops, LossDrops, FaultDrops uint64
}

func observe(l *Link) linkState {
	return linkState{
		QueueBytes: l.QueueBytes(), QueueWaiting: l.QueueWaiting(),
		TxBytes: l.TxBytes(), TxPackets: l.TxPackets(),
		Drops: l.Drops(), LossDrops: l.LossDrops(), FaultDrops: l.FaultDrops(),
	}
}

// delivery is one packet arriving at a node, as the node saw it: the
// engine's order point inside the callback and the egress link's state
// before the packet is forwarded.
type delivery struct {
	Flow       FlowID
	Link       int
	At, Ta     sim.Time
	Tie        uint64
	CE         bool
	NextBefore linkState
}

// chainLog is what one run of the script produced, in order.
type chainLog struct {
	deliveries []delivery
	observed   []linkState
}

// tap is the script's only node type: it logs each arrival and forwards
// along the path through enq — Link.Enqueue or the reference.
type tap struct {
	id  NodeID
	s   *sim.Sim
	log *chainLog
	enq func(*Link, *Packet)
}

func (n *tap) ID() NodeID { return n.id }

func (n *tap) Receive(p *Packet, ingress *Link) {
	d := delivery{Flow: p.Flow, Link: ingress.ID, At: n.s.Now(), Ta: n.s.EventTa(), Tie: n.s.EventTie(), CE: p.CE}
	if p.Hop == len(p.Path)-1 {
		n.log.deliveries = append(n.log.deliveries, d)
		p.Release()
		return
	}
	p.Hop++
	d.NextBefore = observe(p.Path[p.Hop])
	n.log.deliveries = append(n.log.deliveries, d)
	n.enq(p.Path[p.Hop], p)
}

// runChainScript plays one random script — two senders bursting into a
// switch, a bottleneck under the given discipline into a relay, one more
// hop to the sink — and returns everything the nodes and the observers saw.
// The script is drawn before the run from seed alone, so two runs differ
// only in enq.
func runChainScript(t *testing.T, seed int64, qdisc func() Qdisc, enq func(*Link, *Packet)) *chainLog {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	s := sim.New()
	net := NewNetwork(s, seed)
	log := &chainLog{}
	var nodes []*tap
	for i := 0; i < 5; i++ {
		n := &tap{id: net.NextNodeID(), s: s, log: log, enq: enq}
		net.AddNode(n)
		nodes = append(nodes, n)
	}
	a, b, sw, relay, sink := nodes[0], nodes[1], nodes[2], nodes[3], nodes[4]
	la, lb := net.NewLink(a, sw), net.NewLink(b, sw)
	bottleneck, last := net.NewLink(sw, relay), net.NewLink(relay, sink)
	la.SetRate(4 * DefaultRate)
	lb.SetRate(4 * DefaultRate)
	lb.LossRate = 0.05
	bottleneck.QueueCap = 24 * MTU // bursts overflow it: tail drops
	if qdisc != nil {
		bottleneck.SetQdisc(qdisc())
	}
	last.PropDelay, last.ProcDelay = 0, 0 // delivery ties with ser-done
	links := net.Links()

	wires := []int{ControlWire, ControlWire, 576, MTU, MTU}
	flow := FlowID(0)
	at := sim.Time(0)
	for burst := 0; burst < 60; burst++ {
		// Bursts start on a coarse grid and both senders often fire the
		// same sizes at the same instant, so deliveries on different links
		// tie on (at, ta) and the channel key decides.
		at += sim.Time(rng.Intn(40)) * 3 * sim.Microsecond
		n := 1 + rng.Intn(20)
		same := rng.Intn(2) == 0
		for i := 0; i < n; i++ {
			wire := wires[rng.Intn(len(wires))]
			prio := uint8(rng.Intn(4))
			for _, first := range []*Link{la, lb} {
				if !same && rng.Intn(2) == 0 {
					continue
				}
				flow++
				id, path := flow, []*Link{first, bottleneck, last}
				s.At(at, func() {
					p := net.NewPacket()
					p.Flow, p.Kind, p.Wire, p.Payload, p.Prio, p.Path = id, DATA, wire, wire-IPTCPHeader, prio, path
					enq(first, p)
				})
			}
		}
	}
	// A fault window on the bottleneck, cutting through a burst's chain.
	s.At(at/3, func() { bottleneck.SetDown(true) })
	s.At(at/3+90*sim.Microsecond, func() { bottleneck.SetDown(false) })
	// Observers: on the serialization grid of the bottleneck (exact
	// ser-done instants) and off it, scheduled up front (tie 0, ta 0) and
	// from a later instant (ta > most enqueues).
	look := func() {
		for _, l := range links {
			log.observed = append(log.observed, observe(l))
		}
	}
	for i := 0; i < 400; i++ {
		when := sim.Time(rng.Int63n(int64(at) + int64(sim.Millisecond)))
		switch rng.Intn(3) {
		case 0:
			when -= when % (12 * sim.Microsecond)
		case 1:
			when -= when % 320
		}
		if rng.Intn(2) == 0 {
			s.At(when, look)
		} else {
			s.At(when/2, func() { s.At(when, look) })
		}
	}
	// The run is cut into pieces, one of them by Halt from a callback.
	s.At(at/2, s.Halt)
	s.RunUntil(at / 4)
	s.RunUntil(at)
	s.Run()
	look()
	if taken, released := net.PacketPoolStats(); taken != released || taken != uint64(flow) {
		t.Fatalf("seed %d: %d packets sent, %d taken, %d released", seed, flow, taken, released)
	}
	return log
}

// TestChainedDeliveryMatchesPerPacketReference is the differential test of
// the per-link delivery chain: the same script through Link.Enqueue and
// through the per-packet reference must produce the same deliveries — in
// the same global order, at the same instants, under the same (ta, tie)
// stamps, with the same marks — and the same queue state at every look.
func TestChainedDeliveryMatchesPerPacketReference(t *testing.T) {
	for _, c := range []struct {
		name  string
		qdisc func() Qdisc
	}{
		{"fifo", nil},
		{"ecn", func() Qdisc { return &ECNFIFO{Threshold: 6 * MTU} }},
		{"prio", func() Qdisc { return NewPrio(4) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				got := runChainScript(t, seed, c.qdisc, (*Link).Enqueue)
				want := runChainScript(t, seed, c.qdisc, refEnqueue)
				if len(got.deliveries) != len(want.deliveries) {
					t.Fatalf("seed %d: %d deliveries chained, %d in the reference", seed, len(got.deliveries), len(want.deliveries))
				}
				for i := range want.deliveries {
					if got.deliveries[i] != want.deliveries[i] {
						t.Fatalf("seed %d: delivery %d is %+v chained, %+v in the reference", seed, i, got.deliveries[i], want.deliveries[i])
					}
				}
				for i := range want.observed { // the script fixes how many looks there are
					if got.observed[i] != want.observed[i] {
						t.Fatalf("seed %d: look %d (link %d) sees %+v chained, %+v in the reference", seed, i/4, i%4, got.observed[i], want.observed[i])
					}
				}
				if seed == 1 {
					checkScriptCoverage(t, want, c.name == "ecn")
				}
			}
		})
	}
}

// checkScriptCoverage keeps the script honest: it must still reach what it
// was written to reach.
func checkScriptCoverage(t *testing.T, log *chainLog, marking bool) {
	t.Helper()
	final := log.observed[len(log.observed)-4:] // la, lb, bottleneck, last
	ties, marked := 0, 0
	for i, d := range log.deliveries {
		if i > 0 && d.At == log.deliveries[i-1].At && d.Link != log.deliveries[i-1].Link {
			ties++
		}
		if d.CE {
			marked++
		}
	}
	if final[1].LossDrops == 0 {
		t.Error("script coverage: no loss-coin drops")
	}
	if final[2].Drops == 0 {
		t.Error("script coverage: no tail drops at the bottleneck")
	}
	if final[2].FaultDrops == 0 {
		t.Error("script coverage: the fault window lost nothing")
	}
	if ties == 0 {
		t.Error("script coverage: no two links delivered at the same instant")
	}
	if marking && marked == 0 {
		t.Error("script coverage: no packet was ECN-marked")
	}
}

// burst enqueues n MTU packets on the first link of path at the current
// instant and returns them.
func burst(net *Network, a, b *Host, path []*Link, n int) []*Packet {
	ps := make([]*Packet, n)
	for i := range ps {
		ps[i] = mkpkt(a, b, path, MTU)
		ps[i].Flow = FlowID(i + 1)
		net.Send(ps[i])
	}
	return ps
}

// TestLoweredDelayUnderChainPanics pins the chain's guard: PropDelay and
// ProcDelay are exported fields, and lowering one with packets in flight
// would make a later packet due before an earlier one. A chained link
// cannot deliver those out of order, and says so instead of reordering.
func TestLoweredDelayUnderChainPanics(t *testing.T) {
	net, a, b, path := line(t)
	l := path[0]
	burst(net, a, b, path, 3)
	l.ProcDelay = sim.Microsecond
	mustPanic(t, fmt.Sprintf("netsim: %v delivery due", l), func() { net.Send(mkpkt(a, b, path, MTU)) })

	// Raising a delay keeps due times in order, and each packet keeps the
	// delay it was enqueued under.
	net, a, b, path = line(t)
	l = path[0]
	var at []sim.Time
	l.To.(*Switch).Logic = logicFunc(func(*Packet) { at = append(at, net.Sim.Now()) })
	l.PropDelay, l.ProcDelay = 0, 0
	burst(net, a, b, path, 2)
	l.ProcDelay = 40 * sim.Microsecond
	burst(net, a, b, path, 1)
	net.Sim.Run()
	tx := l.TxTime(MTU)
	if want := []sim.Time{tx, 2 * tx, 3*tx + 40*sim.Microsecond}; !reflect.DeepEqual(at, want) {
		t.Errorf("deliveries at %v, want %v", at, want)
	}
}

// logicFunc is a SwitchLogic that looks at each packet and drops it.
type logicFunc func(*Packet)

func (f logicFunc) Process(_ Node, pkt *Packet, _, _ *Link) bool { f(pkt); return false }

// TestSetRateMidBurstKeepsPerPacketTiming changes the link rate while a
// burst is queued, down and then up. Serialization times are stamped at
// enqueue from the rate of that moment, so every packet is delivered when
// the per-packet formula says — max(enqueue, previous done) + its own
// transmission time + the delays — however many were chained behind one
// event when the rate moved.
func TestSetRateMidBurstKeepsPerPacketTiming(t *testing.T) {
	net, a, b, path := line(t)
	l := path[0]
	var got []sim.Time
	l.To.(*Switch).Logic = logicFunc(func(*Packet) { got = append(got, net.Sim.Now()) })
	var want []sim.Time
	busy := sim.Time(0)
	send := func(n int) {
		for i := 0; i < n; i++ {
			busy = max(busy, net.Sim.Now()) + l.TxTime(MTU)
			want = append(want, busy+l.PropDelay+l.ProcDelay)
		}
		burst(net, a, b, path, n)
	}
	send(6)
	net.Sim.At(20*sim.Microsecond, func() { l.SetRate(DefaultRate / 4); send(4) })
	net.Sim.At(50*sim.Microsecond, func() { l.SetRate(10 * DefaultRate); send(8) })
	net.Sim.At(5*sim.Millisecond, func() { send(2) }) // idle wire: a new chain
	net.Sim.Run()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deliveries at\n%v, per-packet formula says\n%v", got, want)
	}
}

// TestSetDownMidChainLosesTheWindow fails a link while a burst's deliveries
// are chained behind one event. Exactly the packets whose delivery instant
// falls inside the window are lost — each still hands the link's event to
// its successor — and the ones due after the link is restored arrive on
// time.
func TestSetDownMidChainLosesTheWindow(t *testing.T) {
	net, a, b, path := line(t)
	l := path[0]
	var got []FlowID
	var at []sim.Time
	l.To.(*Switch).Logic = logicFunc(func(p *Packet) { got, at = append(got, p.Flow), append(at, net.Sim.Now()) })
	burst(net, a, b, path, 10)
	due := func(i int) sim.Time { return sim.Time(i)*l.TxTime(MTU) + l.PropDelay + l.ProcDelay } // of packet i, 1-based
	// Down just after packet 3 is delivered, up just after packet 7 was due.
	net.Sim.At(due(3)+1, func() { l.SetDown(true) })
	net.Sim.At(due(7)+1, func() { l.SetDown(false) })
	net.Sim.Run()
	if want := []FlowID{1, 2, 3, 8, 9, 10}; !reflect.DeepEqual(got, want) {
		t.Fatalf("delivered %v, want %v", got, want)
	}
	for i, f := range got {
		if at[i] != due(int(f)) {
			t.Errorf("packet %d delivered at %v, want %v", f, at[i], due(int(f)))
		}
	}
	if l.FaultDrops() != 4 || l.TxPackets() != 10 || net.Sim.Pending() != 0 {
		t.Errorf("fault drops %d, tx %d, %d events pending; want 4, 10, 0", l.FaultDrops(), l.TxPackets(), net.Sim.Pending())
	}
}
