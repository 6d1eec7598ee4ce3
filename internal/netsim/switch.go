package netsim

// SwitchLogic is protocol-specific per-packet processing at a forwarding
// element (a switch, or a relaying host in server-centric topologies): the
// PDQ flow controller, the RCP or D3 rate controllers. It runs after the
// egress port has been resolved and before the packet is enqueued.
type SwitchLogic interface {
	// Process may mutate the packet's scheduling header. at is the
	// forwarding node, ingress the link the packet arrived on, egress the
	// link it is about to be enqueued on. Returning false drops the
	// packet: the forwarding node releases it, so Process must not.
	Process(at Node, pkt *Packet, ingress, egress *Link) bool
}

// Switch is an output-queued switch. Forwarding is source-routed: the next
// link is read from the packet's path.
type Switch struct {
	id    NodeID
	net   *Network
	Logic SwitchLogic // protocol hook; may be nil (plain forwarding)
}

// NewSwitch creates and registers a switch.
func (n *Network) NewSwitch() *Switch {
	s := &Switch{id: n.NextNodeID(), net: n}
	n.AddNode(s)
	return s
}

// ID implements Node.
func (s *Switch) ID() NodeID { return s.id }

// Network returns the network the switch belongs to.
func (s *Switch) Network() *Network { return s.net }

// Receive implements Node: it advances the packet to its next hop, invoking
// the protocol logic first.
func (s *Switch) Receive(pkt *Packet, ingress *Link) {
	if pkt.Hop >= len(pkt.Path)-1 {
		panic("netsim: packet path ends at a switch")
	}
	egress := pkt.Path[pkt.Hop+1]
	if egress.From != Node(s) {
		panic("netsim: path link does not start at this switch")
	}
	if s.Logic != nil && !s.Logic.Process(s, pkt, ingress, egress) {
		pkt.Release()
		return
	}
	pkt.Hop++
	egress.Enqueue(pkt)
}
