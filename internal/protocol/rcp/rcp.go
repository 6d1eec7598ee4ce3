// Package rcp implements the RCP baseline (Dukkipati & McKeown [10]) used
// throughout the PDQ paper's evaluation: per-link processor sharing with
// explicit rate feedback. Following §5.1, this is the *optimized* variant
// that counts the exact number of flows at each link, which converges to
// the fair rate within about an RTT and avoids the loss bursts of the
// estimator-based original. The paper notes this optimized RCP is exactly
// equivalent to D3 when flows have no deadlines.
package rcp

import (
	"pdq/internal/carve"
	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/protocol/xfer"
	"pdq/internal/sim"
	"pdq/internal/topo"
)

// HdrWire is the RCP congestion header size: one 4-byte rate field plus a
// 4-byte echo, conservatively charged like the other explicit-rate
// protocols' headers.
const HdrWire = 8

// Header is the RCP rate feedback carried by every packet.
type Header struct {
	Rate int64 // bits/s; switches lower it to their fair share
}

// Config is RCP's parameter set. It is empty: no scenario varies an RCP
// constant.
type Config struct{}

// updatePeriod is how often the fair rate is recomputed: every two initial
// RTTs, the same 2·RTT rhythm as PDQ's rate controller, so queues built
// during flow churn drain. Flows whose TERM was lost leave the exact count
// after protocol.StaleTimeout.
const updatePeriod = 2 * protocol.InitRTT

// linkState is the per-link RCP controller: the exact flow set and the
// current fair rate.
type linkState struct {
	link       *netsim.Link
	flows      map[netsim.FlowID]sim.Time // flow → last seen
	rate       int64                      // current fair share
	lastUpdate sim.Time
}

func (st *linkState) maybeUpdate(now sim.Time) {
	if now-st.lastUpdate < updatePeriod {
		return
	}
	st.lastUpdate = now
	cutoff := now - protocol.StaleTimeout
	for id, seen := range st.flows {
		if seen < cutoff {
			delete(st.flows, id)
		}
	}
	n := len(st.flows)
	if n == 0 {
		st.rate = st.link.Rate
		return
	}
	qBits := int64(st.link.QueueWaiting()) * 8
	drain := qBits * int64(sim.Second) / int64(2*protocol.InitRTT)
	c := st.link.Rate - drain
	if c < 0 {
		c = 0
	}
	st.rate = c / int64(n)
}

// System wires RCP into a topology: the shared host scaffold plus the
// per-link controllers, which every switch and relaying host runs.
type System struct {
	*protocol.System

	states []*linkState // indexed by the dense link ID
	ends   *carve.Chunks[endpoints]
}

// endpoints is one flow's state at both ends, carved whole.
type endpoints struct {
	rcv xfer.Receiver
	w   xfer.Window
	sd  sender
}

// Install attaches RCP to every host and switch of the topology.
func Install(t *topo.Topology, _ Config) *System {
	s := &System{ends: carve.Of[endpoints](t.Net.Arena())}
	s.System = protocol.Install(t, 1, (*logic)(s), s.launch)
	return s
}

// sender is RCP's side of the shared transfer machinery: every packet asks
// for the NIC rate and the sender adopts what the switches left of it.
type sender struct {
	xfer.Pacer
	xfer.Plain
	nic int64
}

// Stamp implements xfer.Hooks.
func (sd *sender) Stamp(pkt *netsim.Packet) { *netsim.HeaderOf[Header](pkt) = Header{Rate: sd.nic} }

// Feedback implements xfer.Hooks.
func (sd *sender) Feedback(pkt *netsim.Packet) int64 {
	if h, ok := pkt.Hdr.(*Header); ok {
		return h.Rate
	}
	return 0
}

// capRate keeps the echoed rate within the receiver's NIC rate.
func capRate(pkt *netsim.Packet, nic int64) {
	if h, ok := pkt.Hdr.(*Header); ok && h.Rate > nic {
		h.Rate = nic
	}
}

func (s *System) launch(l protocol.Launch) (protocol.Receiver, protocol.Sender) {
	e := s.ends.New()
	e.rcv.Init(l, capRate)
	e.w.Init(l, HdrWire)
	e.sd = sender{nic: l.Src.NICRate()}
	e.w.Attach(&e.sd.Pacer, l.Fwd[0], &e.sd)
	e.sd.Start()
	return &e.rcv, &e.w
}

// logic is System viewed as switch logic.
type logic System

func (l *logic) state(link *netsim.Link) *linkState {
	l.states = netsim.GrowTo(l.states, link.ID)
	st := l.states[link.ID]
	if st == nil {
		st = &linkState{link: link, flows: map[netsim.FlowID]sim.Time{}, rate: link.Rate}
		l.states[link.ID] = st
	}
	return st
}

// ResetLinkState implements the fault layer's SoftStateResetter: a switch
// crash discards the link's flow count and rate estimate, rebuilt from
// subsequent traffic.
func (l *logic) ResetLinkState(link *netsim.Link) {
	if link.ID < len(l.states) {
		l.states[link.ID] = nil
	}
}

// Process implements netsim.SwitchLogic: forward packets have their rate
// field lowered to the link's fair share; TERM removes the flow from the
// exact count.
func (l *logic) Process(at netsim.Node, pkt *netsim.Packet, ingress, egress *netsim.Link) bool {
	h, ok := pkt.Hdr.(*Header)
	if !ok || !pkt.Kind.Forward() {
		return true
	}
	st := l.state(egress)
	now := l.Sim.Now()
	if pkt.Kind == netsim.TERM {
		delete(st.flows, pkt.Flow)
		return true
	}
	st.flows[pkt.Flow] = now
	st.maybeUpdate(now)
	if st.rate < h.Rate {
		h.Rate = st.rate
	}
	return true
}
