// Package d3 implements the D3 baseline (Wilson et al. [19]) as described
// and used in the PDQ paper: a deadline-aware, first-come-first-reserve
// rate-allocation protocol.
//
// Every RTT (in practice: on every packet carrying the request header) a
// sender asks each switch on its path for a desired rate r = s/d — the
// remaining flow size over the time to deadline — or 0 for best-effort
// flows. A switch returns the flow's previous allocation to the pool, then
// grants demand plus a fair share of the leftover capacity, in the order
// requests arrive. This "first-come first-reserve" behavior is exactly
// what PDQ's evaluation criticizes: late-arriving flows with tight
// deadlines can be starved by earlier flows that hold reservations
// (Fig. 1d).
//
// The implementation includes the rate-adaptation parameters α=0.1, β=1,
// the quenching algorithm (senders terminate flows that can no longer meet
// their deadline), and the PDQ authors' fix forcing the fair share to be
// non-negative (§5.1).
package d3

import (
	"pdq/internal/carve"
	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/protocol/xfer"
	"pdq/internal/sim"
	"pdq/internal/topo"
)

// HdrWire is the D3 request header size: desired rate, previous
// allocation and granted allocation fields.
const HdrWire = 12

// Header is the D3 rate-request vector carried by every packet.
type Header struct {
	Desired int64 // r = remaining/deadline for deadline flows, else 0
	Grant   int64 // allocation granted this pass (min over switches)
}

// Config is D3's parameter set. It is empty: no scenario varies a D3
// constant.
type Config struct{}

// The rate-adaptation parameters of §5.1. Reservations whose flow went
// silent (a lost TERM) are collected after protocol.StaleTimeout.
const (
	alpha = 0.1 // α: headroom gain
	beta  = 1.0 // β: queue-drain gain
)

// alloc is one flow's standing reservation on a link.
type alloc struct {
	rate int64
	seen sim.Time
}

// linkState tracks per-flow reservations; first-come first-reserve order
// emerges because each request is served against the capacity left by the
// reservations standing at that moment.
type linkState struct {
	link   *netsim.Link
	allocs map[netsim.FlowID]*alloc
	sum    int64 // Σ allocs
	lastGC sim.Time
}

func (st *linkState) gc(now sim.Time) {
	if now-st.lastGC < protocol.StaleTimeout/2 {
		return
	}
	st.lastGC = now
	cutoff := now - protocol.StaleTimeout
	for id, a := range st.allocs {
		if a.seen < cutoff {
			st.sum -= a.rate
			delete(st.allocs, id)
		}
	}
}

// request runs the D3 rate-adaptation for one flow request: return the old
// reservation, compute the available capacity with the α/β correction
// terms, grant demand plus a non-negative fair share.
func (st *linkState) request(now sim.Time, flow netsim.FlowID, desired int64) int64 {
	st.gc(now)
	a := st.allocs[flow]
	if a == nil {
		a = &alloc{}
		st.allocs[flow] = a
	}
	// Return the previous allocation.
	st.sum -= a.rate

	// Capacity with rate adaptation: C·(1+α·headroom) − β·q/(2·RTT).
	c := float64(st.link.Rate)
	head := (c - float64(st.sum)) / c
	if head < 0 {
		head = 0
	}
	qBits := float64(st.link.QueueWaiting()) * 8
	drain := beta * qBits * float64(sim.Second) / float64(2*protocol.InitRTT)
	capacity := float64(c*(1+float64(alpha*head))) - drain
	if capacity > c {
		capacity = c
	}

	avail := int64(capacity) - st.sum
	if avail < 0 {
		avail = 0
	}
	n := len(st.allocs)
	// Fair share of what would remain after satisfying the demand; the
	// PDQ authors' fix: never negative.
	fs := (avail - desired) / int64(n)
	if fs < 0 {
		fs = 0
	}
	grant := desired + fs
	if grant > avail {
		grant = avail
	}
	a.rate = grant
	a.seen = now
	st.sum += grant
	return grant
}

func (st *linkState) release(flow netsim.FlowID) {
	if a := st.allocs[flow]; a != nil {
		st.sum -= a.rate
		delete(st.allocs, flow)
	}
}

// System wires D3 into a topology: the shared host scaffold plus the
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

// Install attaches D3 to every host and switch of the topology.
func Install(t *topo.Topology, _ Config) *System {
	s := &System{ends: carve.Of[endpoints](t.Net.Arena())}
	s.System = protocol.Install(t, 1, (*logic)(s), s.launch)
	return s
}

// sender is D3's side of the shared transfer machinery: the demand
// computation and quenching.
type sender struct {
	xfer.Pacer
	xfer.Plain
	sys *System
	nic int64
}

// desired is r = remaining / time-to-deadline for deadline flows. Like
// quench and launch, it reads the flow's fields in place: the value
// methods of workload.Flow copy it.
func (sd *sender) desired() int64 {
	w := sd.Window()
	if w.Flow.Deadline <= 0 {
		return 0
	}
	left := w.Flow.Start + w.Flow.Deadline - sd.sys.Sim.Now() // Flow.AbsDeadline
	if left <= 0 {
		return 0
	}
	return w.Remaining() * 8 * int64(sim.Second) / int64(left)
}

// quench terminates a flow that can no longer meet its deadline.
func (sd *sender) quench() bool {
	w := sd.Window()
	if w.Over() || w.Flow.Deadline <= 0 {
		return false
	}
	now := sd.sys.Sim.Now()
	if now > w.Flow.Start+w.Flow.Deadline {
		w.Terminate()
		return true
	}
	return false
}

// quenchTimer is the sender seen as the sim.Runner that quenches it just
// past its deadline, so arming it allocates nothing.
type quenchTimer sender

func (t *quenchTimer) RunEvent() { (*sender)(t).quench() }

// Stamp implements xfer.Hooks.
func (sd *sender) Stamp(pkt *netsim.Packet) {
	*netsim.HeaderOf[Header](pkt) = Header{Desired: sd.desired(), Grant: sd.nic}
}

// Feedback implements xfer.Hooks. Quenching rides here, ahead of the
// acknowledgment accounting.
func (sd *sender) Feedback(pkt *netsim.Packet) int64 {
	if sd.quench() {
		return 0
	}
	if h, ok := pkt.Hdr.(*Header); ok {
		return h.Grant
	}
	return 0
}

// capRate keeps the echoed grant within the receiver's NIC rate.
func capRate(pkt *netsim.Packet, nic int64) {
	if h, ok := pkt.Hdr.(*Header); ok && h.Grant > nic {
		h.Grant = nic
	}
}

func (s *System) launch(l protocol.Launch) (protocol.Receiver, protocol.Sender) {
	e := s.ends.New()
	e.rcv.Init(l, capRate)
	e.w.Init(l, HdrWire)
	e.sd = sender{sys: s, nic: l.Src.NICRate()}
	e.w.Attach(&e.sd.Pacer, l.Fwd[0], &e.sd)
	if l.Flow.Deadline > 0 {
		s.Sim.AtRunner(l.Flow.Start+l.Flow.Deadline+1, (*quenchTimer)(&e.sd))
	}
	e.sd.Start()
	return &e.rcv, &e.w
}

// logic is System viewed as switch logic.
type logic System

func (l *logic) state(link *netsim.Link) *linkState {
	l.states = netsim.GrowTo(l.states, link.ID)
	st := l.states[link.ID]
	if st == nil {
		st = &linkState{link: link, allocs: map[netsim.FlowID]*alloc{}}
		l.states[link.ID] = st
	}
	return st
}

// ResetLinkState implements the fault layer's SoftStateResetter: a switch
// crash discards the link's reservation table, rebuilt as flows
// renegotiate on their next forward packets.
func (l *logic) ResetLinkState(link *netsim.Link) {
	if link.ID < len(l.states) {
		l.states[link.ID] = nil
	}
}

// Process implements netsim.SwitchLogic: each forward packet renegotiates
// the flow's reservation on the egress link.
func (l *logic) Process(at netsim.Node, pkt *netsim.Packet, ingress, egress *netsim.Link) bool {
	h, ok := pkt.Hdr.(*Header)
	if !ok || !pkt.Kind.Forward() {
		return true
	}
	st := l.state(egress)
	if pkt.Kind == netsim.TERM {
		st.release(pkt.Flow)
		return true
	}
	grant := st.request(l.Sim.Now(), pkt.Flow, h.Desired)
	if grant < h.Grant {
		h.Grant = grant
	}
	return true
}
