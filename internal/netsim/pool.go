package netsim

import "pdq/internal/carve"

// Packet life cycle (DESIGN.md §3). A sender takes a zeroed packet from
// Network.NewPacket and hands it to Send. The receiver turns the delivered
// forward packet around in place as its acknowledgment (TurnAround) instead
// of building a second one. The packet is released where its life ends: by
// the sending agent once it has digested the acknowledgment, by the
// receiver on packets it does not answer (TERM, unknown flows), and by
// netsim itself on every drop — queue overflow, loss coin, a down link at
// enqueue or delivery, switch logic returning false, a host without an
// agent. Releasing is only legal where forwarding to a next hop would be:
// the holder has the packet after its delivery event, so it is off every
// serializer chain and no event refers to it.
//
// Use after release is guarded always: Release marks the packet free and
// clears its Path, so Send and Enqueue of a free packet panic, as does a
// second Release. Packets built by a struct literal (tests, the benchmark
// harness) are not pool-owned: releasing one is a no-op and it may be sent
// again.
//
// A pool does not allocate its packets one by one: it carves them, and
// the headers HeaderOf attaches to them, from its network's arena (carve,
// one carver per type), so a network's packets cost one allocation per
// chunk. The arena outlives the run: Network.Reset empties the free list
// and rewinds the arena, so the next run on the network takes the same
// packets and headers again, zeroed, in the order they were first carved,
// and allocates only past the high-water mark of the runs before it.
// Every packet of a run, in flight or not, dies at that reset: nothing
// may touch one afterwards.

// packetPool is a network's packet free list. It grows to the network's
// in-flight high-water mark and no further.
type packetPool struct {
	head            *Packet // LIFO free list, threaded through Packet.qNext
	taken, released uint64

	packets *carve.Chunks[Packet] // arena's, once the pool has grown
	arena   carve.Arena           // the network's (Network.Arena)
}

// reset starts the pool over for a new run: no packet is taken or free,
// and everything carved from the arena is free to be carved again.
func (pp *packetPool) reset() {
	pp.head, pp.taken, pp.released, pp.packets = nil, 0, 0, nil
	pp.arena.Rewind()
}

// get pops a free packet, zeroed except for the header value it last
// carried (HeaderOf), or grows the pool by one.
func (pp *packetPool) get() *Packet {
	pp.taken++
	p := pp.head
	if p == nil {
		return pp.grow()
	}
	pp.head = p.qNext
	*p = Packet{Hdr: p.Hdr, pool: pp}
	return p
}

// grow is the cold side of get, kept apart so the pool's only packet
// allocation reads as what it is: one per chunk of high-water packets.
func (pp *packetPool) grow() *Packet {
	if pp.packets == nil {
		pp.packets = carve.Of[Packet](&pp.arena)
	}
	p := pp.packets.New()
	p.pool = pp
	return p
}

// NewPacket returns a zeroed packet from the network's pool. Hdr alone
// survives from the packet's previous life; take it through HeaderOf and
// overwrite it.
func (n *Network) NewPacket() *Packet { return n.pool.get() }

// Release ends the packet's life and returns it to its network's pool.
// The caller must hold the packet the way a forwarding node does:
// delivered to it, or never sent. On a literal packet — not pool-owned —
// it does nothing.
func (p *Packet) Release() {
	if p.pool != nil {
		p.pool.put(p)
	}
}

// put pushes p on the free list, marked free and stripped of its path so
// that any further use of it panics.
func (pp *packetPool) put(p *Packet) {
	if p.free {
		panic("netsim: packet released twice")
	}
	p.free = true
	p.Path = nil
	p.qNext = pp.head
	pp.head = p
	pp.released++
}

// PacketPoolStats returns how many packets protocols have taken from the
// network's pool and how many have been released back. The two are equal
// once the engine has drained: every packet taken is released exactly
// once.
func (n *Network) PacketPoolStats() (taken, released uint64) {
	return n.pool.taken, n.pool.released
}

// TurnAround makes a delivered forward packet its own acknowledgment, in
// place: the reverse kind, routed over rev, at control-packet size, with
// the marks a fresh acknowledgment would not carry cleared. Flow, Subflow,
// Src, Dst, Slot, Seq, EchoSentAt and the header ride back unchanged. The caller
// adjusts what its protocol echoes differently and hands the packet to
// Send.
func (p *Packet) TurnAround(rev []*Link) {
	p.Kind = p.Kind.Ack()
	p.Path = rev
	p.Payload = 0
	p.Wire = ControlWire
	p.CE, p.ECE, p.Prio = false, false, 0
}

// HeaderOf returns the protocol header of type *H riding with pkt. A
// recycled packet keeps the header value it last carried, so in steady
// state this is a type assertion and the caller re-initialises the value
// in place; a packet that has none of this type yet (fresh from the
// allocator, or last used under another header type) gets a zero one
// attached. Storing the pointer in Hdr does not box: the header stays
// with the packet for its whole pooled existence. A pooled packet's
// header is carved from its network's arena; a literal packet's is
// allocated alone.
func HeaderOf[H any](pkt *Packet) *H {
	if h, ok := pkt.Hdr.(*H); ok {
		return h
	}
	return attachHeader[H](pkt)
}

func attachHeader[H any](pkt *Packet) *H {
	var h *H
	if pkt.pool == nil {
		h = new(H)
	} else {
		h = carve.Of[H](&pkt.pool.arena).New()
	}
	pkt.Hdr = h
	return h
}
