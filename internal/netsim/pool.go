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
// the headers HeaderOf attaches to them, from chunks (carve.Chunks, one
// carver per type), so a network's packets cost one allocation per chunk.
// Chunks die with their run (Network.Reset empties the pool); nothing
// crosses cells.

// packetPool is a network's packet free list. It grows to the network's
// in-flight high-water mark and no further.
type packetPool struct {
	head            *Packet // LIFO free list, threaded through Packet.qNext
	taken, released uint64

	chunks carve.Chunks[Packet]
	// hdrs holds one *carve.Chunks[H] per header type H attached so far.
	// The pointer keeps the carver from being boxed when it is stored in
	// the interface.
	hdrs []any
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
	p := pp.chunks.New()
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
// header is carved from its pool's carver of that type; a literal packet's
// is allocated alone.
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
		h = headerChunk[H](pkt.pool).New()
	}
	pkt.Hdr = h
	return h
}

// headerChunk returns pp's carver of H headers, adding one the first
// time H is attached. A network carries one or two header types, so the
// scan is short.
func headerChunk[H any](pp *packetPool) *carve.Chunks[H] {
	for _, c := range pp.hdrs {
		if c, ok := c.(*carve.Chunks[H]); ok {
			return c
		}
	}
	c := new(carve.Chunks[H])
	pp.hdrs = append(pp.hdrs, c)
	return c
}
