package netsim

import (
	"fmt"
	"math/rand"

	"pdq/internal/sim"
)

// Default link parameters from §5.1 / Figure 2 of the paper.
const (
	DefaultRate      int64    = 1_000_000_000 // 1 Gbps
	DefaultPropDelay sim.Time = 100           // 0.1 µs
	DefaultProcDelay sim.Time = 25 * sim.Microsecond
	DefaultQueueCap  int      = 4 << 20 // 4 MB
)

// Link is one direction of a network cable: an output queue at From feeding
// a wire toward To. Bidirectional connectivity is modeled as a pair of
// Links joined by Peer.
//
// Packet timing is handled by a timestamp serializer (DESIGN.md §3): each
// accepted packet is stamped with its serialization-completion time and its
// delivery key, and threaded onto an intrusive FIFO. A naive model
// schedules three events per packet (start/complete/deliver); here the
// link keeps one pooled event pending — the delivery of its oldest
// undelivered packet, the Packet itself being the callback — and each
// delivery schedules the next packet's before anything else. Queue
// occupancy and the Tx counters are settled lazily from the timestamps,
// ordered against the engine's (at, ta, tie, seq) event order, so reads
// must go through the accessor methods.
type Link struct {
	ID        int
	From, To  Node
	Rate      int64    // bits per second
	PropDelay sim.Time // propagation delay
	ProcDelay sim.Time // per-hop processing delay, charged at delivery
	QueueCap  int      // tail-drop FIFO capacity in bytes
	Peer      *Link    // reverse direction, nil for unidirectional links

	// LossRate, if nonzero, drops each enqueued packet with this
	// probability (used by the §5.6 resilience experiments).
	LossRate float64

	// State is protocol-private per-link state (e.g. the PDQ switch keeps
	// its flow list here). Owned by the protocol's switch logic.
	State any

	net       *Network
	qBytes    int      // bytes queued or serializing, as of the last advance
	busyUntil sim.Time // when the last accepted packet finishes serializing

	// Owner engine: the network's single Sim, or — in a sharded run — the
	// engine of the shard owning From (DESIGN.md §12). All of the link's
	// mutable state above and below is owned by that shard; the only
	// cross-shard traffic is the delivery handoff through the mailbox.
	ownSim *sim.Sim
	// Sharded-run routing state, set by EnableSharding: the shards owning
	// the From and To nodes, the To shard's engine (read-only use at
	// delivery), and dirty marking membership in the owner shard's settle
	// list.
	shard, toShard int32
	dstSim         *sim.Sim
	dirty          bool
	// handoffCtr counts deliveries emitted by this link in every mode:
	// (ID, handoffCtr) is the delivery's structural tie-break key, the
	// canonical order for same-instant deliveries on the single engine and
	// the injection order across shard barriers (DESIGN.md §14).
	handoffCtr uint32
	// downPlan is the static fault timeline (sorted down/up toggle times)
	// in sharded runs: delivery-side down checks on the To shard read this
	// immutable slice instead of the From-owned down flag.
	downPlan []sim.Time

	// Queue discipline (DESIGN.md §9). nil is the built-in tail-drop
	// FIFO fast path; sched is set iff the discipline reorders dequeues,
	// in which case serving is the packet on the serializer and the
	// discipline buffers the rest.
	qdisc   Qdisc
	sched   Scheduler
	serving *Packet

	// The link's packet chain, threaded through Packet.qNext in enqueue
	// order; serDone and due times are monotone along it. qHead is the
	// oldest unsettled packet — waiting for or undergoing serialization as
	// far as advance has looked — and qTail the youngest, meaningful while
	// qHead is non-nil. Packets are never unlinked: a cursor moves past
	// them, and a stale qNext is overwritten when the packet is enqueued
	// again or released.
	qHead, qTail *Packet
	// dTail is the youngest packet whose delivery has not fired, nil when
	// none is outstanding (single engine only). The oldest such packet is
	// the one the pending delivery event holds; the ones behind it are
	// reached through qNext, each scheduled by its predecessor's delivery
	// (Packet.RunEvent). Undelivered packets include the unsettled ones, so
	// on the FIFO path this is the same chain further back.
	dTail *Packet

	// Fault-injection state (DESIGN.md §11). down drops every packet
	// touching the link — at enqueue and at delivery, so in-flight packets
	// are lost too. ge, when non-nil, replaces nothing: it runs alongside
	// LossRate as an independent Gilbert-Elliott burst-loss process. Both
	// cost one nil/false check on the fault-free hot path.
	down bool
	ge   *GilbertElliott
	// rng is the link's private loss stream (LossRate coins and the GE
	// chain), lazily seeded from (network seed, link ID). A per-link
	// stream makes loss draws depend only on this link's own enqueue
	// order, which is partition-independent — the property that lets
	// lossy cells run sharded (DESIGN.md §14).
	rng *rand.Rand

	// Counters, settled as of the last advance; read via the methods below.
	txPackets  uint64
	txBytes    uint64
	drops      uint64
	lossDrops  uint64
	faultDrops uint64
	// remoteFaultDrops counts packets lost at delivery because the link
	// was down, in sharded runs: the delivery fires on the To shard, so
	// the count lives in a field only that shard writes. Read via
	// FaultDrops after the run.
	remoteFaultDrops uint64
}

// NewLink creates a single directed link with default parameters.
func (n *Network) NewLink(from, to Node) *Link {
	l := &Link{
		ID:        len(n.links),
		From:      from,
		To:        to,
		Rate:      DefaultRate,
		PropDelay: DefaultPropDelay,
		ProcDelay: DefaultProcDelay,
		QueueCap:  DefaultQueueCap,
		net:       n,
		ownSim:    n.Sim,
	}
	n.links = append(n.links, l)
	return l
}

// GrowTo extends s with zero values until index id is valid and returns
// the (possibly reallocated) slice. It is the shared idiom for the dense
// per-link state tables the protocol switch logics key by Link.ID. The
// whole extension is appended at once, so growing a table costs at most
// one allocation regardless of how far id is beyond the current length.
func GrowTo[T any](s []T, id int) []T {
	if need := id + 1 - len(s); need > 0 {
		s = append(s, make([]T, need)...)
	}
	return s
}

// SetQdisc installs a queue discipline on l. A nil qdisc (or TailDrop,
// its explicit form) restores the built-in tail-drop FIFO fast path.
// The discipline must be installed while the link is idle — swapping
// policies under in-flight packets would corrupt the serializer state.
func (l *Link) SetQdisc(q Qdisc) {
	if l.qHead != nil || l.serving != nil {
		panic(fmt.Sprintf("netsim: SetQdisc on busy %v", l))
	}
	if q == nil {
		l.qdisc, l.sched = nil, nil
		return
	}
	if _, isDefault := q.(TailDrop); isDefault {
		l.qdisc, l.sched = nil, nil
		return
	}
	l.qdisc = q
	l.sched, _ = q.(Scheduler)
}

// Qdisc returns the installed queue discipline; nil is the built-in
// tail-drop FIFO.
func (l *Link) Qdisc() Qdisc { return l.qdisc }

// NewDuplexLink creates a bidirectional link (two directed links joined by
// Peer) and returns the from→to direction.
func (n *Network) NewDuplexLink(a, b Node) *Link {
	ab := n.NewLink(a, b)
	ba := n.NewLink(b, a)
	ab.Peer, ba.Peer = ba, ab
	return ab
}

// SetRate sets the rate (bits/s) of l and its peer, if any.
func (l *Link) SetRate(bps int64) {
	l.Rate = bps
	if l.Peer != nil {
		l.Peer.Rate = bps
	}
}

// advance settles the serializer up to the current (time, ta, tie) order
// point: every packet whose serialization-complete transition precedes it
// is accounted (queue occupancy, Tx counters) and qHead moves past it. The
// stamp comparison reproduces the eager model's tie-breaking exactly: a
// completion at time t was an event scheduled when the packet was
// enqueued, so an observer event also firing at t sees the completion if
// and only if the completion's enqueue stamp precedes the observer — that
// is, iff (enqTa, enqTie) precedes the observer's (ta, tie). Both halves
// are partition-independent (virtual time and the producing channel's
// identity — the same key the engine itself sorts same-instant events
// by), so the answer is identical on the single engine and on every
// sharding, even when the observer arrived as a barrier-injected handoff
// (DESIGN.md §14).
//
//pdq:hotpath
func (l *Link) advance() {
	now := l.ownSim.Now()
	ta := l.ownSim.EventTa()
	tie := l.ownSim.EventTie()
	for p := l.qHead; p != nil && (p.serDone < now || (p.serDone == now && (p.enqTa < ta || (p.enqTa == ta && p.enqTie <= tie)))); p = l.qHead {
		l.qBytes -= p.Wire
		l.txPackets++
		l.txBytes += uint64(p.Wire)
		l.qHead = p.qNext
	}
}

// advanceTo settles the serializer up to barrier time t: every packet
// whose serialization completed strictly before t is accounted and
// passed. Sharded runs call it at every window start (the pre-window
// hook), which guarantees qHead is past a packet — nothing on this shard
// will follow its qNext again — before its delivery, at least one full
// lookahead after serDone, can fire on another shard and relink the packet
// onto its next hop.
// Settling early is observationally identical to the lazy advance: the
// settle predicate is monotone in (time, seq), and exact-instant ties
// (serDone == t) are left for the owner shard's own advance.
func (l *Link) advanceTo(t sim.Time) {
	for p := l.qHead; p != nil && p.serDone < t; p = l.qHead {
		l.qBytes -= p.Wire
		l.txPackets++
		l.txBytes += uint64(p.Wire)
		l.qHead = p.qNext
	}
}

// QueueBytes returns the instantaneous queue occupancy in bytes, including
// the packet currently being serialized.
func (l *Link) QueueBytes() int {
	l.advance()
	return l.qBytes
}

// QueueWaiting returns the bytes waiting behind the packet currently being
// serialized — the backlog a rate controller should drain. A link running
// at exactly its capacity has QueueWaiting ≈ 0 while QueueBytes ≈ one MTU.
func (l *Link) QueueWaiting() int {
	if l.sched != nil {
		if l.serving != nil {
			return l.qBytes - l.serving.Wire
		}
		return l.qBytes
	}
	l.advance()
	inService := 0
	if h := l.qHead; h != nil {
		now := l.ownSim.Now()
		ta := l.ownSim.EventTa()
		// serStart is stamped at enqueue (like the old eager start event),
		// so a mid-run SetRate cannot misclassify the in-service packet.
		// Ties compare full (ta, tie) stamps, like advance.
		if h.serStart < now || (h.serStart == now && (h.enqTa < ta || (h.enqTa == ta && h.enqTie <= l.ownSim.EventTie()))) {
			inService = h.Wire
		}
	}
	return l.qBytes - inService
}

// TxPackets returns the number of packets fully serialized onto the link.
func (l *Link) TxPackets() uint64 {
	l.advance()
	return l.txPackets
}

// TxBytes returns the wire bytes fully serialized onto the link.
func (l *Link) TxBytes() uint64 {
	l.advance()
	return l.txBytes
}

// Drops returns the number of tail-dropped packets.
func (l *Link) Drops() uint64 { return l.drops }

// LossDrops returns the number of random losses injected via LossRate or
// an installed Gilbert-Elliott process.
func (l *Link) LossDrops() uint64 { return l.lossDrops }

// FaultDrops returns the number of packets lost because the link was
// down. In sharded runs the total combines enqueue-side drops (From
// shard) and delivery-side drops (To shard); read it after the run.
func (l *Link) FaultDrops() uint64 { return l.faultDrops + l.remoteFaultDrops }

// SetDownPlan installs the static fault timeline for sharded runs: the
// sorted down/up toggle times of this direction. The plan is immutable
// once the run starts — delivery events on the To shard read it in place
// of the From-owned down flag. A toggle at exactly t affects packets
// delivered at t, matching the single-engine order where setup-scheduled
// fault events fire before same-instant deliveries.
func (l *Link) SetDownPlan(toggles []sim.Time) { l.downPlan = toggles }

// downAt reports whether the static fault timeline has the link down at
// t: an odd number of toggles at or before t. Plans hold a handful of
// entries, so the linear scan beats a binary search.
//
//pdq:hotpath
func (l *Link) downAt(t sim.Time) bool {
	n := 0
	for n < len(l.downPlan) && l.downPlan[n] <= t {
		n++
	}
	return n&1 == 1
}

// SetDown fails or restores this direction of the link. A down link drops
// packets at enqueue and loses packets already in flight at their delivery
// instant; it does not disturb serializer bookkeeping, so restoring the
// link resumes normal service with the queue state the failure left
// behind. Fault injection fails both directions (SetDuplexDown).
func (l *Link) SetDown(down bool) { l.down = down }

// SetDuplexDown fails or restores both directions of a duplex link.
func (l *Link) SetDuplexDown(down bool) {
	l.SetDown(down)
	if l.Peer != nil {
		l.Peer.SetDown(down)
	}
}

// Down reports whether this direction of the link is failed.
func (l *Link) Down() bool { return l.down }

// SetGE installs (or, with nil, removes) a Gilbert-Elliott burst-loss
// process on this direction of the link. Drops are counted in LossDrops,
// like the Bernoulli LossRate coin, and the chain draws from the link's
// private loss stream.
func (l *Link) SetGE(g *GilbertElliott) { l.ge = g }

// lossRand returns the link's private loss stream, created on first use.
// The seed mixes the network's cell seed with the link ID (splitmix64
// finalizer), so every link direction gets an independent, reproducible
// stream regardless of what any other link draws. Deliberately not
// //pdq:hotpath: it is only reached on lossy links, and the one-time
// rand.New is amortized over the link's lifetime.
func (l *Link) lossRand() *rand.Rand {
	if l.rng == nil {
		z := uint64(l.net.seed) + 0x9e3779b97f4a7c15*uint64(l.ID+1)
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		l.rng = rand.New(rand.NewSource(int64(z ^ (z >> 31))))
	}
	return l.rng
}

// OwnerNow returns the current virtual time of the engine owning this
// link: the shard owning From in a sharded run, the network's single Sim
// otherwise. Protocol switch logic processing a packet at From reads its
// clock here — that processing always happens on the owner shard, so the
// read is race-free and equals the processing event's own time.
//
//pdq:hotpath
func (l *Link) OwnerNow() sim.Time { return l.ownSim.Now() }

// TxTime returns the serialization delay of a packet of the given wire size.
func (l *Link) TxTime(wire int) sim.Time {
	return sim.Time(int64(wire) * 8 * int64(sim.Second) / l.Rate)
}

// String identifies the link for diagnostics.
func (l *Link) String() string {
	return fmt.Sprintf("link%d(%d->%d)", l.ID, l.From.ID(), l.To.ID())
}

// Enqueue places pkt into the link's queue under the installed
// discipline (tail-drop FIFO by default): the qdisc decides admission
// and may mark the packet; a rejected packet is dropped, and every drop
// releases the packet to the pool. A down link
// drops first — deterministically, before any loss coin, so fault windows
// never perturb the RNG stream of packets that would have been lost
// anyway. Random loss injection (LossRate, then an installed
// Gilbert-Elliott process) runs next, covering both directions of the
// paper's loss experiments, and is attributed to LossDrops — a packet
// never reaches the admission check once a loss coin drops it.
//
//pdq:hotpath
func (l *Link) Enqueue(pkt *Packet) {
	if pkt.free {
		panic("netsim: Enqueue of a released packet")
	}
	if l.down {
		l.faultDrops++
		pkt.Release()
		return
	}
	if l.LossRate > 0 && l.lossRand().Float64() < l.LossRate {
		l.lossDrops++
		pkt.Release()
		return
	}
	if l.ge != nil && l.ge.Drop(l.lossRand()) {
		l.lossDrops++
		pkt.Release()
		return
	}
	if l.sched != nil {
		l.schedEnqueue(pkt)
		return
	}
	l.advance()
	if q := l.qdisc; q == nil {
		if l.qBytes+pkt.Wire > l.QueueCap {
			l.drops++
			pkt.Release()
			return
		}
	} else {
		if !q.Admit(l, pkt, l.qBytes) {
			l.drops++
			pkt.Release()
			return
		}
		q.OnEnqueue(l, pkt, l.qBytes)
	}
	l.qBytes += pkt.Wire
	now := l.ownSim.Now()
	start := now
	if l.busyUntil > start {
		start = l.busyUntil
	}
	done := start + l.TxTime(pkt.Wire)
	l.busyUntil = done
	pkt.serStart = start
	pkt.serDone = done
	pkt.qNext = nil
	if l.qHead != nil {
		l.qTail.qNext = pkt
	} else {
		l.qHead = pkt
	}
	l.qTail = pkt
	// The packet is delivered after serialization plus the wire and
	// processing delays by a pooled event whose callback is the packet
	// itself (Packet.RunEvent), so nothing is allocated. The event's
	// channel key doubles as the packet's position in the engine's total
	// event order.
	l.emitDelivery(pkt, now, done)
}

// emitDelivery fixes pkt's delivery event: its due time and the link's
// canonical channel key — (link ID, per-link counter), the structural tie
// that orders same-(at, ta) deliveries identically on the single engine
// and across shard barriers. Sharded runs post the key to the mailbox
// (even when From and To share a shard — injection points must be
// partition-independent) and enroll the link for barrier settling.
//
// Single-engine runs keep one delivery per link in the engine. A packet
// accepted onto an idle wire is scheduled here; one accepted while a
// delivery is outstanding is only linked behind dTail, and the delivery
// ahead of it schedules it with this same key. That is the order the
// engine would have computed from one event per packet: keys grow along
// the chain — due times do not decrease (busyUntil is monotone and the
// delays are per-link constants, checked below), enqueue instants do not
// either, and the counter breaks what is left — so a successor always
// orders after the delivery that schedules it, and no event that orders
// after the successor can fire before that.
//
//pdq:hotpath
func (l *Link) emitDelivery(pkt *Packet, now, done sim.Time) {
	l.handoffCtr++
	pkt.enqTa = now
	pkt.enqTie = uint64(l.ID+1)<<32 | uint64(l.handoffCtr)
	due := done + l.PropDelay + l.ProcDelay
	if sh := l.net.shard; sh != nil {
		if !l.dirty {
			l.dirty = true
			l.net.dirtyLinks[l.shard] = append(l.net.dirtyLinks[l.shard], l)
		}
		sh.Post(int(l.shard), sim.Handoff{
			Due:   due,
			Ta:    now,
			Pa:    l.ownSim.EventTa(),
			Link:  uint32(l.ID),
			Ctr:   l.handoffCtr,
			To:    l.toShard,
			Bytes: uint32(pkt.Wire),
			R:     pkt,
		})
		return
	}
	pkt.due = due
	tail := l.dTail
	l.dTail = pkt
	if tail == nil {
		l.ownSim.AtRunnerKeyed(due, pkt.enqTie, pkt)
		return
	}
	if due < tail.due {
		l.panicDueOrder(due, tail.due)
	}
	tail.qNext = pkt
}

// panicDueOrder is emitDelivery's cold failure path, kept out of the
// annotated hot function so it stays free of fmt.
func (l *Link) panicDueOrder(due, prev sim.Time) {
	panic(fmt.Sprintf("netsim: %v delivery due %v before its predecessor's %v: PropDelay or ProcDelay lowered under in-flight packets", l, due, prev))
}

// schedEnqueue is the reordering-discipline path: the qdisc buffers
// waiting packets and the link serializes exactly one at a time, so
// dequeue order is decided when the serializer frees up rather than
// stamped at enqueue. Counters and qBytes are settled eagerly (advance
// has nothing to walk — the intrusive FIFO stays empty on this path).
//
//pdq:hotpath
func (l *Link) schedEnqueue(pkt *Packet) {
	if !l.qdisc.Admit(l, pkt, l.qBytes) {
		l.drops++
		pkt.Release()
		return
	}
	l.qdisc.OnEnqueue(l, pkt, l.qBytes)
	l.qBytes += pkt.Wire
	if l.serving == nil {
		l.startService(pkt)
	} else {
		l.sched.Push(pkt)
	}
}

// startService puts pkt on the serializer: one delivery event for the
// packet (serialization + wire + processing delays, Packet.RunEvent)
// plus one serialization-complete event for the link itself, which
// settles the counters and pulls the discipline's next packet.
//
//pdq:hotpath
func (l *Link) startService(pkt *Packet) {
	now := l.ownSim.Now()
	done := now + l.TxTime(pkt.Wire)
	pkt.serStart, pkt.serDone = now, done
	pkt.qNext = nil
	l.serving = pkt
	l.busyUntil = done
	// The ser-done event is link-local (tie 0), so at a full (at, ta)
	// coincidence — a link with zero propagation and processing delay —
	// it fires before the keyed delivery and the packet is accounted as
	// departed first, matching the fast path's enqTie tie-break. It also
	// stays on the owner shard in sharded runs; only the delivery crosses
	// the mailbox.
	l.ownSim.AtRunner(done, l)
	l.emitDelivery(pkt, now, done)
}

// RunEvent implements sim.Runner for the reordering-discipline path: it
// fires when the serving packet finishes serializing, accounts it, and
// starts the discipline's next pick.
//
//pdq:hotpath
func (l *Link) RunEvent() {
	p := l.serving
	l.qBytes -= p.Wire
	l.txPackets++
	l.txBytes += uint64(p.Wire)
	l.serving = nil
	if next := l.sched.Pop(); next != nil {
		l.startService(next)
	}
}
