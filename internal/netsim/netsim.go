// Package netsim models the network substrate of the PDQ paper's simulator:
// hosts, output-queued switches, directed links with FIFO tail-drop queues,
// and the packets and scheduling headers that traverse them.
//
// The model follows §5.1 of the paper: every link has a rate (default
// 1 Gbps), a propagation delay (default 0.1 µs), a per-hop processing delay
// (default 25 µs) and a tail-drop queue (default 4 MB). Transmission delay
// is derived from packet size and link rate.
//
// Packets are source-routed: a packet carries the ordered list of directed
// links from source to destination, so acknowledgments traverse the exact
// reverse path and a switch can locate the forward-direction link state for
// reverse-path processing as the reverse of the ACK's ingress link.
package netsim

import (
	"fmt"

	"pdq/internal/sim"
)

// NodeID identifies a node (host or switch) in the network.
type NodeID int32

// FlowID identifies a flow. Subflows of a multipath flow share the parent
// FlowID and are distinguished by Packet.Subflow.
type FlowID uint64

// Kind enumerates packet types used by the transport protocols.
type Kind uint8

// Packet kinds. Forward kinds travel sender→receiver; the receiver echoes
// each forward packet back as the corresponding reverse kind.
const (
	KindInvalid Kind = iota
	SYN              // flow initialization (carries scheduling header, no data)
	DATA             // data segment
	PROBE            // rate probe from a paused sender
	TERM             // flow termination (normal completion or Early Termination)
	SYNACK
	ACK // acknowledgment of a DATA segment
	PROBEACK
	TERMACK
)

// Forward reports whether k travels in the sender→receiver direction.
func (k Kind) Forward() bool { return k >= SYN && k <= TERM }

// Ack returns the reverse kind acknowledging forward kind k.
func (k Kind) Ack() Kind {
	switch k {
	case SYN:
		return SYNACK
	case DATA:
		return ACK
	case PROBE:
		return PROBEACK
	case TERM:
		return TERMACK
	}
	panic(fmt.Sprintf("netsim: Ack of non-forward kind %d", k))
}

func (k Kind) String() string {
	switch k {
	case SYN:
		return "SYN"
	case DATA:
		return "DATA"
	case PROBE:
		return "PROBE"
	case TERM:
		return "TERM"
	case SYNACK:
		return "SYNACK"
	case ACK:
		return "ACK"
	case PROBEACK:
		return "PROBEACK"
	case TERMACK:
		return "TERMACK"
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Wire sizes in bytes, per §5.1 and §7 of the paper.
const (
	MTU          = 1500 // maximum wire size of a data packet
	IPTCPHeader  = 40   // TCP/IP header bytes on every packet
	ControlWire  = 40   // SYN/ACK/PROBE/TERM wire size (scheduling header piggybacked)
	SchedHdrWire = 16   // PDQ scheduling header bytes on data packets
)

// MSS is the maximum payload of a data packet carrying a scheduling header.
const MSS = MTU - IPTCPHeader - SchedHdrWire

// Packet is a simulated packet. Packets are passed by pointer and owned by
// exactly one queue or node at a time; protocol endpoints must not retain
// them after handing them to the network. Protocols take packets from
// Network.NewPacket and whoever holds one when its life ends calls Release
// (pool.go has the life cycle); a packet built by a struct literal is not
// pool-owned and is simply left to the garbage collector.
type Packet struct {
	Flow    FlowID
	Subflow int // subflow index for multipath flows, 0 otherwise
	Kind    Kind
	Src     NodeID // original sender host of the flow
	Dst     NodeID // receiver host of the flow
	Seq     int64  // first payload byte offset (DATA and its ACK)
	Payload int    // payload bytes carried (DATA only)
	Wire    int    // total bytes on the wire

	Path []*Link // directed links from this packet's source to destination
	Hop  int     // index into Path of the link currently being traversed

	// Hdr is the protocol scheduling header (*SchedHeader for PDQ,
	// *rcp.Header, *d3.Header), nil for headerless protocols. It rides with
	// a pooled packet across lives: see HeaderOf.
	Hdr any

	// ECN bits (RFC 3168 analogues, DESIGN.md §9): CE (congestion
	// experienced) is set by a marking queue discipline when the packet
	// enqueues into a backlog above threshold; the receiver echoes it
	// back as ECE on the acknowledgment (DCTCP).
	CE  bool
	ECE bool

	// Prio is the strict-priority band for Scheduler disciplines
	// (0 = highest). pFabric stamps it from the flow's remaining size.
	Prio uint8

	// Pool state (pool.go): the free list the packet returns to — the pool
	// of the engine currently holding it, nil for a literal packet — and
	// whether it sits on that list now.
	free bool
	pool *packetPool

	// EchoSentAt is the send timestamp of the forward packet, copied into
	// its acknowledgment by the receiver (like a TCP timestamp option) so
	// the sender can measure RTT without per-packet sender state.
	EchoSentAt sim.Time

	// Serializer state, owned by the Link the packet currently occupies
	// (DESIGN.md §3): the intrusive FIFO linkage, the times serialization
	// onto that link starts and completes, when the delivery is due (kept
	// for a chained packet, whose event is scheduled later than enqueue),
	// and the (instant, channel key) stamp of the enqueue — with due, the
	// packet's position in the engine's (at, ta, tie, seq) total event
	// order, fixed at enqueue. Exact-instant observers compare against
	// this stamp: both halves are partition-independent (virtual time and
	// the producing channel's identity), so lazy settling resolves
	// exact-instant ties identically at any shard count (DESIGN.md §14).
	qNext    *Packet
	serStart sim.Time
	serDone  sim.Time
	due      sim.Time
	enqTa    sim.Time
	enqTie   uint64
}

// RunEvent implements sim.Runner: it fires when the packet has fully
// traversed its current link (serialization + propagation + processing).
// Scheduling the packet itself as the callback keeps per-packet delivery
// allocation-free. On the single engine the delivery first hands the link's
// one event on to the packet chained behind it (Link.emitDelivery), under
// the key that packet was given at enqueue — before anything can reuse
// qNext, lose this packet or look at the engine's queue, and first so the
// engine can put it where this event was (sim: lazy pop). The link is then
// settled, so its cursor is past the packet before the next hop relinks it.
// A packet in flight on a link that went down mid-traversal is lost at
// delivery time — the failure severs the wire under it.
//
//pdq:hotpath
func (p *Packet) RunEvent() {
	ingress := p.Path[p.Hop]
	if ingress.net.shard != nil {
		// Sharded delivery, firing on the To shard: the ingress link's
		// serializer chain was settled past this packet at a barrier
		// (advanceTo), so no From-owned state is touched here. The down
		// check reads the immutable fault timeline instead of the
		// From-owned flag, and the drop counter is the To-shard field.
		// From here on the To shard holds the packet, so that shard's
		// pool is where it will be released.
		if p.pool != nil {
			p.pool = ingress.net.pools[ingress.toShard]
		}
		if ingress.downAt(ingress.dstSim.Now()) {
			ingress.remoteFaultDrops++
			p.Release()
			return
		}
		ingress.To.Receive(p, ingress)
		return
	}
	if next := p.qNext; next != nil {
		ingress.ownSim.AtRunnerStamped(next.due, next.enqTa, next.enqTie, next)
	} else {
		ingress.dTail = nil
	}
	ingress.advance()
	if ingress.down {
		ingress.faultDrops++
		p.Release()
		return
	}
	ingress.To.Receive(p, ingress)
}

// Node is a network element that can receive packets from links.
type Node interface {
	ID() NodeID
	// Receive is invoked when pkt has fully traversed ingress.
	Receive(pkt *Packet, ingress *Link)
}

// Network owns the simulation clock, nodes and links of one experiment.
type Network struct {
	Sim   *sim.Sim
	seed  int64 // cell seed; per-link loss streams derive from it (Link.lossRand)
	nodes []Node
	links []*Link

	// pools are the packet free lists (pool.go): one for the single
	// engine, one per shard once EnableSharding has run.
	pools []*packetPool

	// Sharded-run state (DESIGN.md §12), set by EnableSharding: the shard
	// group, the node→shard assignment, and the per-shard lists of links
	// with unsettled serializer chains (each appended to and drained only
	// by its owner shard).
	shard      *sim.ShardGroup
	shardOf    []int32
	dirtyLinks [][]*Link
}

// NewNetwork creates an empty network driven by s, with deterministic
// randomness derived from seed: each link's loss process draws from a
// private stream keyed by (seed, link ID), so loss sequences depend only
// on the seed and that link's own packet order — never on how draws from
// other links interleave, and never on how the network is sharded.
func NewNetwork(s *sim.Sim, seed int64) *Network {
	return &Network{Sim: s, seed: seed, pools: []*packetPool{{}}}
}

// AddNode registers n. Nodes must be registered in NodeID order; the helper
// constructors (NewHost, NewSwitch) handle this.
func (n *Network) AddNode(node Node) {
	if int(node.ID()) != len(n.nodes) {
		panic(fmt.Sprintf("netsim: node %d registered out of order (have %d nodes)", node.ID(), len(n.nodes)))
	}
	n.nodes = append(n.nodes, node)
}

// NextNodeID returns the NodeID the next registered node must use.
func (n *Network) NextNodeID() NodeID { return NodeID(len(n.nodes)) }

// Node returns the node with the given id.
func (n *Network) Node(id NodeID) Node { return n.nodes[id] }

// NumNodes returns the number of registered nodes.
func (n *Network) NumNodes() int { return len(n.nodes) }

// Links returns all directed links, in creation order.
func (n *Network) Links() []*Link { return n.links }

// EnableSharding partitions the network over the shard group: node id i
// belongs to shard shardOf[i], a link is owned by its From node's shard,
// and link deliveries flow through the group's mailbox. Call it after the
// topology is built and before any event is scheduled. The group's
// lookahead must lower-bound every link's propagation+processing delay —
// the conservative window correctness condition. Random loss (LossRate,
// Gilbert-Elliott) shards freely: every loss coin draws from the link's
// private stream in the link's own enqueue order, both of which are
// partition-independent (DESIGN.md §14).
func (n *Network) EnableSharding(g *sim.ShardGroup, shardOf []int32) {
	if len(shardOf) != len(n.nodes) {
		panic(fmt.Sprintf("netsim: shard map covers %d of %d nodes", len(shardOf), len(n.nodes)))
	}
	for _, l := range n.links {
		if l.PropDelay+l.ProcDelay < g.Lookahead() {
			panic(fmt.Sprintf("netsim: %v delay %v below shard lookahead %v",
				l, l.PropDelay+l.ProcDelay, g.Lookahead()))
		}
	}
	n.shard = g
	n.shardOf = shardOf
	n.dirtyLinks = make([][]*Link, g.Shards())
	for len(n.pools) < g.Shards() {
		n.pools = append(n.pools, &packetPool{})
	}
	for _, l := range n.links {
		l.shard = shardOf[l.From.ID()]
		l.toShard = shardOf[l.To.ID()]
		l.ownSim = g.Shard(int(l.shard))
		l.dstSim = g.Shard(int(l.toShard))
	}
	g.SetPreWindow(n.settleDirty)
}

// Sharded reports whether the network runs on a shard group.
func (n *Network) Sharded() bool { return n.shard != nil }

// ShardGroup returns the shard group, nil for single-engine runs.
func (n *Network) ShardGroup() *sim.ShardGroup { return n.shard }

// SimFor returns the engine owning node id: the shard's engine in a
// sharded run, the network's single Sim otherwise. Protocol endpoints
// schedule their local events (timers, flow launches) on it.
func (n *Network) SimFor(id NodeID) *sim.Sim {
	if n.shard == nil {
		return n.Sim
	}
	return n.shard.Shard(int(n.shardOf[id]))
}

// settleDirty is the group's pre-window hook: each shard settles its own
// links' serializer chains up to the window start, so packets delivered
// on other shards during the window are already unlinked (see advanceTo).
func (n *Network) settleDirty(shard int, windowStart sim.Time) {
	ls := n.dirtyLinks[shard]
	kept := ls[:0]
	for _, l := range ls {
		l.advanceTo(windowStart)
		if l.qHead != nil {
			kept = append(kept, l)
		} else {
			l.dirty = false
		}
	}
	n.dirtyLinks[shard] = kept
}

// Send injects pkt at the head of its path. The caller must have set Path;
// Hop is reset to 0. A released packet has no path, so sending one panics
// here.
func (n *Network) Send(pkt *Packet) {
	if len(pkt.Path) == 0 {
		panic("netsim: Send with empty path")
	}
	pkt.Hop = 0
	pkt.Path[0].Enqueue(pkt)
}

// ReversePath returns the reverse of path (each link replaced by its peer),
// for routing acknowledgments. It allocates a new slice.
func ReversePath(path []*Link) []*Link {
	rev := make([]*Link, len(path))
	for i, l := range path {
		if l.Peer == nil {
			panic("netsim: ReversePath over unidirectional link")
		}
		rev[len(path)-1-i] = l.Peer
	}
	return rev
}
