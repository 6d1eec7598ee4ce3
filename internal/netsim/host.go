package netsim

// Agent is a transport-protocol endpoint running on a host. One agent
// instance per host handles all of that host's flows (sending and
// receiving sides).
type Agent interface {
	// Receive is invoked for every packet addressed to the agent's host.
	Receive(pkt *Packet, ingress *Link)
}

// Host is an end system. Its NIC is modeled by the access link connecting
// it to its top-of-rack switch.
//
// In server-centric topologies (BCube), hosts also relay transit packets;
// a relaying host applies Logic exactly like a switch does, because in
// BCube the scheduling function runs on servers as well.
type Host struct {
	id    NodeID
	net   *Network
	Agent Agent       // transport endpoint; may be set after construction
	Logic SwitchLogic // per-packet processing when relaying (BCube), may be nil

	// Access is the host's uplink (host→switch direction), recorded by
	// topology constructors so senders can derive their maximal rate
	// (R^max = NIC rate, §3). Multi-homed hosts (BCube) record the first.
	Access *Link
}

// NewHost creates and registers a host.
func (n *Network) NewHost() *Host {
	h := n.hostSlab.New()
	*h = Host{id: n.NextNodeID(), net: n}
	n.AddNode(h)
	return h
}

// ID implements Node.
func (h *Host) ID() NodeID { return h.id }

// Network returns the network the host belongs to.
func (h *Host) Network() *Network { return h.net }

// NICRate returns the host's access-link rate in bits/s, or DefaultRate if
// the host has no recorded access link.
func (h *Host) NICRate() int64 {
	if h.Access != nil {
		return h.Access.Rate
	}
	return DefaultRate
}

// Receive implements Node: packets that end here go to the agent; transit
// packets (server-centric topologies) are relayed like a switch would.
func (h *Host) Receive(pkt *Packet, ingress *Link) {
	if pkt.Hop == len(pkt.Path)-1 {
		if h.Agent != nil {
			h.Agent.Receive(pkt, ingress)
		} else {
			pkt.Release()
		}
		return
	}
	egress := pkt.Path[pkt.Hop+1]
	// Pointers, not interfaces, are compared: an interface comparison is
	// a runtime call on every hop.
	if from, _ := egress.From.(*Host); from != h {
		panic("netsim: path link does not start at this relay host")
	}
	if h.Logic != nil && !h.Logic.Process(h, pkt, ingress, egress) {
		pkt.Release()
		return
	}
	pkt.Hop++
	egress.Enqueue(pkt)
}
