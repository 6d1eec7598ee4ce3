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
	"slices"

	"pdq/internal/carve"
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
	// Slot is the flow's index in its protocol.System's flow table,
	// stamped by the sender; the acknowledgment keeps it. Hosts
	// demultiplex by it (with Flow as the check), not by a map lookup.
	Slot    int32
	Seq     int64 // first payload byte offset (DATA and its ACK)
	Payload int   // payload bytes carried (DATA only)
	Wire    int   // total bytes on the wire

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

	// Pool state (pool.go): the free list the packet returns to — its
	// network's, nil for a literal packet — and whether it sits on that
	// list now.
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
	// this stamp, so lazy settling resolves exact-instant ties as the
	// engine orders them (DESIGN.md §3).
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
// allocation-free. The delivery first hands the link's one event on to the
// packet chained behind it (Link.emitDelivery), under
// the key that packet was given at enqueue — before anything can reuse
// qNext, lose this packet or look at the engine's queue, and first so the
// engine can put it where this event was (sim: lazy pop). The link is then
// settled, so its cursor is past the packet before the next hop relinks it.
// A packet in flight on a link that went down mid-traversal is lost at
// delivery time — the failure severs the wire under it.
func (p *Packet) RunEvent() {
	ingress := p.Path[p.Hop]
	if next := p.qNext; next != nil {
		ingress.net.Sim.AtRunnerStamped(next.due, next.enqTa, next.enqTie, next)
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

	// NewHost, NewSwitch and NewLink carve from these, outside the arena:
	// nodes and links live as long as the network. Reserve sizes each
	// to its count, so a built topology holds one slab of each.
	hostSlab   carve.Chunks[Host]
	switchSlab carve.Chunks[Switch]
	linkSlab   carve.Chunks[Link]

	// pool is the packet free list and the network's arena (pool.go).
	pool packetPool
}

// NewNetwork creates an empty network driven by s, with deterministic
// randomness derived from seed: each link's loss process draws from a
// private stream keyed by (seed, link ID), so loss sequences depend only
// on the seed and that link's own packet order — never on how draws from
// other links interleave.
func NewNetwork(s *sim.Sim, seed int64) *Network {
	return &Network{Sim: s, seed: seed}
}

// Reserve readies the network for that many more hosts, switches and
// directed links: each kind is carved from one slab of exactly its
// count, and the node and link tables grow once. A builder that knows
// its counts calls it first; past them, or without it, nodes and links
// come from growing chunks.
func (n *Network) Reserve(hosts, switches, links int) {
	n.hostSlab.Reserve(hosts)
	n.switchSlab.Reserve(switches)
	n.linkSlab.Reserve(links)
	n.nodes = slices.Grow(n.nodes, hosts+switches)
	n.links = slices.Grow(n.links, links)
}

// Reset returns a used network to its just-built state, driven by s and
// seeded with seed as NewNetwork would leave it, so that a sweep builds a
// topology once and runs cell after cell on it (DESIGN.md §3). The nodes,
// the links and their parameters, and Host.Access stay; every link's run
// state is cleared, hosts lose their Agent and Logic and switches their
// Logic, and the packet pool starts empty. The arena is rewound: the
// previous run's packets, in flight or not, and everything else it carved
// from the arena are carved again by the next run, so nothing may run on
// the network's old engine, or hold what the run carved, afterwards.
func (n *Network) Reset(s *sim.Sim, seed int64) {
	n.Sim, n.seed = s, seed
	n.pool.reset()
	for _, l := range n.links {
		l.reset()
	}
	for _, node := range n.nodes {
		switch node := node.(type) {
		case *Host:
			node.Agent, node.Logic = nil, nil
		case *Switch:
			node.Logic = nil
		}
	}
}

// Arena is what a run on the network carves its run-scoped objects from —
// packets, headers, flow endpoints and state, collector cells — so that
// the next run, after Reset, carves the same memory again.
func (n *Network) Arena() *carve.Arena { return &n.pool.arena }

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
func ReversePath(path []*Link) []*Link { return ReverseInto(make([]*Link, len(path)), path) }

// ReverseInto writes the reverse of path into rev, which must be as long,
// and returns rev.
func ReverseInto(rev, path []*Link) []*Link {
	for i, l := range path {
		if l.Peer == nil {
			panic("netsim: ReversePath over unidirectional link")
		}
		rev[len(path)-1-i] = l.Peer
	}
	return rev
}

// PathUses reports whether path traverses l in either direction.
func PathUses(path []*Link, l *Link) bool {
	for _, x := range path {
		if x == l || x == l.Peer {
			return true
		}
	}
	return false
}
