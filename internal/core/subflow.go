package core

import (
	"pdq/internal/netsim"
	"pdq/internal/protocol/xfer"
	"pdq/internal/sim"
)

// subflow is PDQ's side of one xfer.Pacer (§3.1): the scheduling header it
// stamps on every packet, the pause state the switches hand back, and
// Early Termination. The SYN/data/probe/TERM machine itself is xfer's.
// Single-path flows have exactly one subflow; the subflows of a multipath
// flow compete at the switches as independent flows (§6).
type subflow struct {
	xfer.Pacer
	sys *System

	rmax       int64         // R^max: sender NIC rate
	pauseBy    netsim.NodeID // P_S
	interProbe float64       // I_S, in RTTs
}

// ttrans is T_S: expected remaining transmission time at the maximal rate.
func (s *subflow) ttrans() sim.Time { return xfer.RateTime(s.Window().Remaining(), s.rmax) }

// Stamp implements xfer.Hooks with the scheduling header the sender
// attaches to every outgoing packet: R_H = R^max (§3.1), the rest from
// sender state. The header riding with the packet is overwritten whole.
func (s *subflow) Stamp(pkt *netsim.Packet) {
	// The flow's fields are read in place: its value methods copy it.
	var deadline sim.Time // 0 encodes "none"
	if f := &s.Window().Flow; f.Deadline > 0 {
		deadline = f.Start + f.Deadline // Flow.AbsDeadline
	}
	*netsim.HeaderOf[netsim.SchedHeader](pkt) = netsim.SchedHeader{
		Rate:     s.rmax,
		PauseBy:  s.pauseBy,
		Deadline: deadline,
		TTrans:   s.ttrans(),
		RTT:      s.SRTT(),
	}
}

// Feedback implements xfer.Hooks: the sender adopts the path-wide decision
// the switches left in the acknowledgment's header.
func (s *subflow) Feedback(pkt *netsim.Packet) int64 {
	h, ok := pkt.Hdr.(*netsim.SchedHeader)
	if !ok {
		return s.Rate()
	}
	s.pauseBy = h.PauseBy
	s.interProbe = h.InterProbe
	return h.Rate
}

// ProbeRTTs implements xfer.Hooks: a paused sender probes every I_S RTTs
// (Suppressed Probing, §3.3.2).
func (s *subflow) ProbeRTTs() float64 { return s.interProbe }

// AfterAck implements xfer.Hooks with Early Termination: it applies the
// §3.1 conditions and reports whether the flow was terminated. The
// deadline timer runs the same check.
func (s *subflow) AfterAck() bool {
	w := s.Window()
	if !s.sys.Cfg.EarlyTermination || w.Over() || w.Flow.Deadline <= 0 {
		return false
	}
	now := w.Sim().Now()
	dl := w.Flow.Start + w.Flow.Deadline // Flow.AbsDeadline, read in place as in Stamp
	expired := now > dl
	hopeless := now+s.ttrans() > dl
	pausedTooLate := s.Rate() == 0 && now+s.RTT() > dl
	if expired || hopeless || pausedTooLate {
		w.Terminate()
		return true
	}
	return false
}

// deadlineTimer is the Early Termination timer, armed for just past the
// deadline: the subflow seen as a sim.Runner, so arming it allocates
// nothing.
type deadlineTimer subflow

func (t *deadlineTimer) RunEvent() { (*subflow)(t).AfterAck() }

// capRate keeps R_H in an echoed header within what the receiver can take
// in, its NIC rate (§3.2).
func capRate(pkt *netsim.Packet, nic int64) {
	if h := netsim.HeaderOf[netsim.SchedHeader](pkt); h.Rate > nic {
		h.Rate = nic
	}
}
