package netsim

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

// packetPool is the packet free list of one engine: the network's single
// Sim, or one shard of a sharded run, in which case only that shard's
// worker touches it. A packet released on another shard than it was taken
// on simply changes pools (Packet.RunEvent re-homes it at each delivery),
// so the list grows to the engine's in-flight high-water mark and no
// further.
type packetPool struct {
	head            *Packet // LIFO free list, threaded through Packet.qNext
	taken, released uint64
}

// get pops a free packet, zeroed except for the header value it last
// carried (HeaderOf), or grows the pool by one.
//
//pdq:hotpath
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

// grow is the cold side of get, off the hot path so the analyzer sees the
// pool's only packet allocation for what it is: one per high-water packet.
func (pp *packetPool) grow() *Packet { return &Packet{pool: pp} }

// NewPacket returns a zeroed packet from the pool of the engine owning
// node at, the host about to send it. Hdr alone survives from the
// packet's previous life; take it through HeaderOf and overwrite it.
//
//pdq:hotpath
func (n *Network) NewPacket(at NodeID) *Packet {
	if n.shard == nil {
		return n.pools[0].get()
	}
	return n.pools[n.shardOf[at]].get()
}

// Release ends the packet's life and returns it to the pool of the engine
// holding it. The caller must hold the packet the way a forwarding node
// does: delivered to it, or never sent. On a literal packet — not
// pool-owned — it does nothing.
func (p *Packet) Release() {
	if p.pool != nil {
		p.pool.put(p)
	}
}

// put pushes p on the free list, marked free and stripped of its path so
// that any further use of it panics.
//
//pdq:hotpath
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
// network's pools and how many have been released back, summed over
// shards. The two are equal once the engine has drained: every packet
// taken is released exactly once. Read it between runs, not from a shard
// worker.
func (n *Network) PacketPoolStats() (taken, released uint64) {
	for _, pp := range n.pools {
		taken += pp.taken
		released += pp.released
	}
	return taken, released
}

// TurnAround makes a delivered forward packet its own acknowledgment, in
// place: the reverse kind, routed over rev, at control-packet size, with
// the marks a fresh acknowledgment would not carry cleared. Flow, Subflow,
// Src, Dst, Seq, EchoSentAt and the header ride back unchanged. The caller
// adjusts what its protocol echoes differently and hands the packet to
// Send.
//
//pdq:hotpath
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
// attached. Storing the pointer in Hdr does not box: the header stays one
// heap object for the packet's whole pooled existence.
//
//pdq:hotpath
func HeaderOf[H any](pkt *Packet) *H {
	if h, ok := pkt.Hdr.(*H); ok {
		return h
	}
	return attachHeader[H](pkt)
}

func attachHeader[H any](pkt *Packet) *H {
	h := new(H)
	pkt.Hdr = h
	return h
}
