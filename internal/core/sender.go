package core

import (
	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/workload"
)

// flowShared is sender-side state shared by all subflows of one flow: the
// packetization, the acknowledgment bitmap, and the common send window.
// Single-path flows have exactly one subflow. Subflows draw unsent packets
// from this shared pool, which continuously realizes §6's "shift load from
// the paused subflows to the sending ones" (see DESIGN.md §5).
type flowShared struct {
	flow    workload.Flow
	eng     *sim.Sim // source host's owner engine; all sender timers live here
	rmax    int64    // R^max: sender NIC rate
	numPkts int
	acked   []bool
	sentAt  []sim.Time // last transmission time per packet; 0 = never
	ackedN  int
	ackedB  int64
	nextPkt int // lowest never-sent packet
	base    int // lowest unacked packet (snd_una)
	dup     int // acks for later packets while base is outstanding
	subs    []*sender
	over    bool // completed or terminated; all activity stops
}

func (sh *flowShared) payload(i int) int {
	if i < sh.numPkts-1 {
		return netsim.MSS
	}
	return int(sh.flow.Size - int64(sh.numPkts-1)*netsim.MSS)
}

func (sh *flowShared) remaining() int64 { return sh.flow.Size - sh.ackedB }

// ttrans is T_S: expected remaining transmission time at the maximal rate.
func (sh *flowShared) ttrans() sim.Time { return bytesToTime(sh.remaining(), sh.rmax) }

// advanceBase slides the retransmission base past acked packets.
func (sh *flowShared) advanceBase() {
	old := sh.base
	for sh.base < sh.numPkts && sh.acked[sh.base] {
		sh.base++
	}
	if sh.base != old {
		sh.dup = 0
	}
}

// sender drives one (sub)flow: SYN handshake, paced data transmission at
// the switch-granted rate, probing while paused, retransmission, Early
// Termination, and TERM on completion (§3.1).
type sender struct {
	ag   *Agent
	sh   *flowShared
	sub  int
	path []*netsim.Link

	rate       int64         // R_S: current granted rate
	pauseBy    netsim.NodeID // P_S
	interProbe float64       // I_S, in RTTs
	rtt        sim.Time      // RTT_S, EWMA; 0 until first sample
	synAcked   bool
	synTries   int
	sending    bool // had a positive rate; a drop back to 0 is a preemption

	sendPending  bool
	lastSendAt   sim.Time // transmission time of the previous data packet
	lastWire     int      // its wire size; pacing gap = lastWire at the current rate
	probePending bool

	synEv, sendEv, probeEv, rtoEv sim.EventRef

	// Pre-bound callbacks, created once in start: the pacing loop schedules
	// one event per data packet, and binding a method value at each
	// scheduling site would allocate a closure per packet.
	sendFn, probeFn, synFn, rtoWakeFn func()
}

func (s *sender) sim() *sim.Sim { return s.sh.eng }
func (s *sender) cfg() *Config  { return &s.ag.sys.Cfg }
func (s *sender) now() sim.Time { return s.sim().Now() }
func (s *sender) key() flowKey  { return flowKey{netsim.FlowID(s.sh.flow.ID), s.sub} }
func (s *sender) rttOrInit() sim.Time {
	if s.rtt > 0 {
		return s.rtt
	}
	return s.cfg().InitRTT
}

func (s *sender) rto() sim.Time {
	r := 4 * s.rttOrInit()
	if r < s.cfg().RTOmin {
		r = s.cfg().RTOmin
	}
	return r
}

// header stamps the scheduling header the sender attaches to every
// outgoing packet: R_H = R^max (§3.1), the rest from sender state. h is
// the header riding with the packet, overwritten whole.
//
//pdq:hotpath
func (s *sender) header(h *netsim.SchedHeader) {
	*h = netsim.SchedHeader{
		Rate:     s.sh.rmax,
		PauseBy:  s.pauseBy,
		Deadline: headerDeadline(s.absDeadline()),
		TTrans:   s.sh.ttrans(),
		RTT:      s.rtt,
	}
}

func (s *sender) absDeadline() sim.Time {
	if !s.sh.flow.HasDeadline() {
		return noDeadline
	}
	return s.sh.flow.AbsDeadline()
}

// send takes a packet from the source host's pool, fills it and injects
// it; the agent releases it when it comes back as an acknowledgment.
//
//pdq:hotpath
func (s *sender) send(kind netsim.Kind, seq int64, payload, wire int) {
	net, src := s.ag.sys.net(), s.ag.host.ID()
	pkt := net.NewPacket(src)
	pkt.Flow = netsim.FlowID(s.sh.flow.ID)
	pkt.Subflow = s.sub
	pkt.Kind = kind
	pkt.Src = src
	pkt.Dst = s.path[len(s.path)-1].To.ID()
	pkt.Seq = seq
	pkt.Payload = payload
	pkt.Wire = wire
	pkt.Path = s.path
	pkt.EchoSentAt = s.now()
	s.header(netsim.HeaderOf[netsim.SchedHeader](pkt))
	net.Send(pkt)
}

// start kicks off the handshake.
func (s *sender) start() {
	s.sendFn = s.sendOne
	s.probeFn = s.sendProbe
	s.synFn = s.sendSYN
	s.rtoWakeFn = s.rtoWake
	s.pauseBy = netsim.PauseNone
	s.sendSYN()
	if s.cfg().EarlyTermination && s.sub == 0 && s.sh.flow.HasDeadline() {
		s.sim().At(s.sh.flow.AbsDeadline()+1, s.onDeadline)
	}
}

// onDeadline is the Early Termination timer, armed for just past the
// deadline.
func (s *sender) onDeadline() { s.checkEarlyTermination() }

func (s *sender) sendSYN() {
	if s.sh.over || s.synAcked {
		return
	}
	s.synTries++
	if s.synTries > 10 {
		return // give up silently; the stale timeout cleans up switches
	}
	s.send(netsim.SYN, 0, 0, netsim.ControlWire)
	backoff := 3 * s.cfg().InitRTT * sim.Time(s.synTries)
	s.synEv = s.sim().After(backoff, s.synFn)
}

// onAck handles SYNACK, ACK and PROBEACK feedback: it adopts the
// path-wide rate decision, advances the acknowledgment state, and drives
// the send/probe machinery (§3.1). The agent releases pkt afterwards.
//
//pdq:hotpath
func (s *sender) onAck(pkt *netsim.Packet) {
	if s.sh.over {
		return
	}
	// RTT sample via the echoed timestamp.
	if pkt.EchoSentAt > 0 {
		sample := s.now() - pkt.EchoSentAt
		if s.rtt == 0 {
			s.rtt = sample
		} else {
			s.rtt = (7*s.rtt + sample) / 8
		}
	}
	if h, ok := pkt.Hdr.(*netsim.SchedHeader); ok {
		s.rate = h.Rate
		s.pauseBy = h.PauseBy
		s.interProbe = h.InterProbe
	}
	switch pkt.Kind {
	case netsim.SYNACK:
		if !s.synAcked {
			s.synAcked = true
			s.sim().Cancel(s.synEv)
		}
	case netsim.ACK:
		idx := int(pkt.Seq / netsim.MSS)
		if idx >= 0 && idx < s.sh.numPkts && !s.sh.acked[idx] {
			s.sh.acked[idx] = true
			s.sh.ackedN++
			s.sh.ackedB += int64(s.sh.payload(idx))
			s.sh.advanceBase()
		}
		s.fastRetransmit(idx)
	}
	if s.sh.ackedN == s.sh.numPkts {
		s.complete()
		return
	}
	if s.checkEarlyTermination() {
		return
	}
	if s.rate > 0 {
		s.sending = true
		s.stopProbing()
		// Re-arm the pacer at the new rate: a pending send scheduled
		// under an older (slower) grant would otherwise stand.
		if s.sendPending {
			s.sim().Cancel(s.sendEv)
			s.sendPending = false
		}
		s.ensureSending()
	} else {
		if s.sending {
			s.sending = false
			s.ag.sys.Collector.AddPreemption(s.sh.flow.ID)
		}
		s.stopSending()
		s.ensureProbing()
	}
}

// fastRetransmit recovers lost packets without waiting for the RTO: three
// acknowledgments for packets beyond the oldest outstanding one indicate a
// hole (per-packet ACKs make this the analogue of TCP's duplicate-ACK
// rule), so the oldest packet is resent immediately.
func (s *sender) fastRetransmit(ackedIdx int) {
	sh := s.sh
	if sh.over || sh.base >= sh.numPkts || sh.acked[sh.base] || sh.sentAt[sh.base] == 0 {
		return
	}
	if ackedIdx <= sh.base {
		return
	}
	// Ignore plain reordering across multipath subflows: only count acks
	// once the hole is at least an RTT old.
	if s.now()-sh.sentAt[sh.base] < s.rttOrInit() {
		return
	}
	sh.dup++
	if sh.dup < 3 {
		return
	}
	sh.dup = 0
	idx := sh.base
	pay := sh.payload(idx)
	sh.sentAt[idx] = s.now()
	s.ag.sys.Collector.AddRetransmit(sh.flow.ID)
	s.send(netsim.DATA, int64(idx)*netsim.MSS, pay, pay+netsim.IPTCPHeader+netsim.SchedHdrWire)
}

// ensureSending schedules the paced send loop if it is not running. The
// next transmission is one serialization time of the previous packet at
// the *current* rate, so a rate increase immediately tightens the pacing
// (and a decrease stretches it).
func (s *sender) ensureSending() {
	if s.sendPending || s.sh.over || !s.synAcked {
		return
	}
	now := s.now()
	at := now
	if s.lastWire > 0 {
		if t := s.lastSendAt + bytesToTime(int64(s.lastWire), s.rate); t > at {
			at = t
		}
	}
	s.sendPending = true
	s.sendEv = s.sim().At(at, s.sendFn)
}

func (s *sender) stopSending() {
	if s.sendPending {
		s.sim().Cancel(s.sendEv)
		s.sendPending = false
	}
	s.sim().Cancel(s.rtoEv)
}

// sendOne transmits the next packet: a timed-out retransmission first,
// else the next unsent packet; then re-arms itself one serialization time
// later at the current rate.
func (s *sender) sendOne() {
	s.sendPending = false
	if s.sh.over || s.rate <= 0 {
		return
	}
	sh := s.sh
	sh.advanceBase()
	now := s.now()
	idx := -1
	if sh.base < sh.nextPkt && sh.base < sh.numPkts && !sh.acked[sh.base] &&
		sh.sentAt[sh.base] > 0 && now-sh.sentAt[sh.base] > s.rto() {
		idx = sh.base // retransmit the oldest outstanding packet
		s.ag.sys.Collector.AddRetransmit(sh.flow.ID)
	} else if sh.nextPkt < sh.numPkts {
		idx = sh.nextPkt
		sh.nextPkt++
	} else if sh.base < sh.numPkts {
		// Everything sent, waiting for acknowledgments: wake up when the
		// oldest outstanding packet times out.
		s.sim().Cancel(s.rtoEv)
		wake := sh.sentAt[sh.base] + s.rto() + 1
		if wake <= now {
			wake = now + 1
		}
		s.rtoEv = s.sim().At(wake, s.rtoWakeFn)
		return
	} else {
		return
	}
	pay := sh.payload(idx)
	sh.sentAt[idx] = now
	wire := pay + netsim.IPTCPHeader + netsim.SchedHdrWire
	s.send(netsim.DATA, int64(idx)*netsim.MSS, pay, wire)
	s.lastSendAt = now
	s.lastWire = wire
	s.ensureSending()
}

// ensureProbing arms the probe timer: a paused sender sends a probe every
// max(1, I_S) RTTs to refresh its rate feedback (§3.1, §3.3.2).
func (s *sender) ensureProbing() {
	if s.probePending || s.sh.over {
		return
	}
	mult := s.interProbe
	if mult < 1 {
		mult = 1
	}
	s.probePending = true
	s.probeEv = s.sim().After(sim.Time(mult*float64(s.rttOrInit())), s.probeFn)
}

func (s *sender) stopProbing() {
	if s.probePending {
		s.sim().Cancel(s.probeEv)
		s.probePending = false
	}
}

// rtoWake resumes the send loop when the oldest outstanding packet's
// retransmission timer expires.
func (s *sender) rtoWake() {
	if !s.sh.over && s.rate > 0 {
		s.ensureSending()
	}
}

func (s *sender) sendProbe() {
	s.probePending = false
	if s.sh.over || s.rate > 0 {
		return
	}
	s.send(netsim.PROBE, 0, 0, netsim.ControlWire)
	s.ensureProbing()
}

// checkEarlyTermination applies the §3.1 conditions and reports whether
// the flow was terminated.
func (s *sender) checkEarlyTermination() bool {
	cfg := s.cfg()
	sh := s.sh
	if !cfg.EarlyTermination || sh.over || !sh.flow.HasDeadline() {
		return false
	}
	now := s.now()
	dl := sh.flow.AbsDeadline()
	expired := now > dl
	hopeless := now+sh.ttrans() > dl
	pausedTooLate := s.rate == 0 && now+s.rttOrInit() > dl
	if expired || hopeless || pausedTooLate {
		s.ag.sys.Collector.SetBytesAcked(sh.flow.ID, sh.ackedB)
		s.ag.sys.Collector.Terminate(sh.flow.ID, now)
		sh.shutdown(netsim.TERM)
		return true
	}
	return false
}

// complete finishes the flow on the sender side and releases switch state.
func (s *sender) complete() {
	s.sh.shutdown(netsim.TERM)
}

// shutdown stops all subflows and announces TERM along each subflow path
// so switches drop the flow from their lists.
func (sh *flowShared) shutdown(kind netsim.Kind) {
	if sh.over {
		return
	}
	sh.over = true
	for _, sub := range sh.subs {
		sub.stopSending()
		sub.stopProbing()
		sub.sim().Cancel(sub.synEv)
		sub.send(kind, 0, 0, netsim.ControlWire)
	}
}
