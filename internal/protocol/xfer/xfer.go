// Package xfer provides the reliable explicit-rate transfer machinery
// shared by the RCP and D3 baselines: packetization, a SYN handshake,
// paced transmission at a switch-granted rate, probing while the granted
// rate is zero, timeout-based retransmission, and TERM on completion.
//
// It mirrors the sender machinery of the PDQ implementation
// (internal/core) with the PDQ-specific scheduling state factored out into
// callbacks, so each baseline defines only its header format and feedback
// rule.
package xfer

import (
	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/workload"
)

// Config carries the transport constants shared by the rate-based
// protocols.
type Config struct {
	InitRTT  sim.Time
	RTOmin   sim.Duration
	HdrBytes int // scheduling-header bytes on data packets
}

// WithDefaults fills zero fields with the paper's defaults.
func (c Config) WithDefaults() Config {
	if c.InitRTT == 0 {
		c.InitRTT = 150 * sim.Microsecond
	}
	if c.RTOmin == 0 {
		c.RTOmin = sim.Millisecond
	}
	if c.HdrBytes == 0 {
		c.HdrBytes = netsim.SchedHdrWire
	}
	return c
}

// Callbacks let a protocol customize the sender.
type Callbacks struct {
	// Header stamps the protocol's scheduling header on an outgoing
	// packet, in place on the header value riding with it
	// (netsim.HeaderOf).
	Header func(pkt *netsim.Packet)
	// OnFeedback digests an acknowledgment header and returns the rate
	// the sender should now use (0 pauses the sender, which then probes
	// every RTT).
	OnFeedback func(hdr any) int64
	// OnComplete fires once when every byte has been acknowledged.
	OnComplete func()
}

// Sender drives one flow.
type Sender struct {
	Flow workload.Flow
	Path []*netsim.Link

	// Telemetry, if non-nil, receives retransmit and preemption counts
	// for the flow (set by the installing protocol system).
	Telemetry *workload.Collector

	sim *sim.Sim
	net *netsim.Network
	cfg Config
	cb  Callbacks

	numPkts int
	acked   []bool
	sentAt  []sim.Time
	ackedN  int
	ackedB  int64
	nextPkt int
	base    int
	dup     int // acks beyond base while base is outstanding

	rate     int64
	rtt      sim.Time
	synAcked bool
	synTries int
	sending  bool // had a positive rate; a drop back to 0 is a preemption
	over     bool

	sendPending  bool
	lastSendAt   sim.Time
	lastWire     int
	probePending bool

	synEv, sendEv, probeEv, rtoEv sim.EventRef

	// Pre-bound callbacks, created once in New: the pacing loop schedules
	// one event per data packet, and binding a method value at each
	// scheduling site would allocate a closure per packet.
	sendFn, probeFn, synFn, rtoWakeFn func()
}

// New creates a sender for flow over path.
func New(s *sim.Sim, net *netsim.Network, flow workload.Flow, path []*netsim.Link, cfg Config, cb Callbacks) *Sender {
	if flow.Size <= 0 {
		panic("xfer: flow size must be positive")
	}
	n := int((flow.Size + netsim.MSS - 1) / netsim.MSS)
	snd := &Sender{
		Flow: flow, Path: path, sim: s, net: net, cfg: cfg, cb: cb,
		numPkts: n,
		acked:   make([]bool, n),
		sentAt:  make([]sim.Time, n),
	}
	snd.sendFn = snd.sendOne
	snd.probeFn = snd.sendProbe
	snd.synFn = snd.sendSYN
	snd.rtoWakeFn = snd.rtoWake
	return snd
}

// Remaining returns the unacknowledged byte count.
func (s *Sender) Remaining() int64 { return s.Flow.Size - s.ackedB }

// Rate returns the current granted rate.
func (s *Sender) Rate() int64 { return s.rate }

// RTT returns the smoothed RTT estimate (InitRTT before the first sample).
func (s *Sender) RTT() sim.Time {
	if s.rtt > 0 {
		return s.rtt
	}
	return s.cfg.InitRTT
}

// Over reports whether the sender has completed or been stopped.
func (s *Sender) Over() bool { return s.over }

func (s *Sender) payload(i int) int {
	if i < s.numPkts-1 {
		return netsim.MSS
	}
	return int(s.Flow.Size - int64(s.numPkts-1)*netsim.MSS)
}

func (s *Sender) rto() sim.Time {
	r := 4 * s.RTT()
	if r < s.cfg.RTOmin {
		r = s.cfg.RTOmin
	}
	return r
}

// send takes a packet from the source host's pool, fills it and injects
// it; the protocol's agent releases it when it comes back as an
// acknowledgment.
//
//pdq:hotpath
func (s *Sender) send(kind netsim.Kind, seq int64, payload, wire int) {
	src := s.Path[0].From.ID()
	pkt := s.net.NewPacket(src)
	pkt.Flow = netsim.FlowID(s.Flow.ID)
	pkt.Kind = kind
	pkt.Src = src
	pkt.Dst = s.Path[len(s.Path)-1].To.ID()
	pkt.Seq = seq
	pkt.Payload = payload
	pkt.Wire = wire
	pkt.Path = s.Path
	pkt.EchoSentAt = s.sim.Now()
	s.cb.Header(pkt)
	s.net.Send(pkt)
}

// Start begins the SYN handshake.
func (s *Sender) Start() { s.sendSYN() }

func (s *Sender) sendSYN() {
	if s.over || s.synAcked {
		return
	}
	s.synTries++
	if s.synTries > 10 {
		return
	}
	s.send(netsim.SYN, 0, 0, netsim.ControlWire)
	s.synEv = s.sim.After(3*s.cfg.InitRTT*sim.Time(s.synTries), s.synFn)
}

// Stop halts all activity and sends kind (normally TERM) to release switch
// state.
func (s *Sender) Stop(kind netsim.Kind) {
	if s.over {
		return
	}
	s.over = true
	if s.sendPending {
		s.sim.Cancel(s.sendEv)
		s.sendPending = false
	}
	if s.probePending {
		s.sim.Cancel(s.probeEv)
		s.probePending = false
	}
	s.sim.Cancel(s.rtoEv)
	s.sim.Cancel(s.synEv)
	s.send(kind, 0, 0, netsim.ControlWire)
}

// HandleAck processes SYNACK/ACK/PROBEACK feedback. The packet stays the
// caller's: the agent releases it afterwards.
//
//pdq:hotpath
func (s *Sender) HandleAck(pkt *netsim.Packet) {
	if s.over {
		return
	}
	if pkt.EchoSentAt > 0 {
		sample := s.sim.Now() - pkt.EchoSentAt
		if s.rtt == 0 {
			s.rtt = sample
		} else {
			s.rtt = (7*s.rtt + sample) / 8
		}
	}
	s.rate = s.cb.OnFeedback(pkt.Hdr)
	switch pkt.Kind {
	case netsim.SYNACK:
		if !s.synAcked {
			s.synAcked = true
			s.sim.Cancel(s.synEv)
		}
	case netsim.ACK:
		idx := int(pkt.Seq / netsim.MSS)
		if idx >= 0 && idx < s.numPkts && !s.acked[idx] {
			s.acked[idx] = true
			s.ackedN++
			s.ackedB += int64(s.payload(idx))
			old := s.base
			for s.base < s.numPkts && s.acked[s.base] {
				s.base++
			}
			if s.base != old {
				s.dup = 0
			}
		}
		s.fastRetransmit(idx)
	}
	if s.ackedN == s.numPkts {
		s.Stop(netsim.TERM)
		if s.cb.OnComplete != nil {
			s.cb.OnComplete()
		}
		return
	}
	if s.rate > 0 {
		s.sending = true
		if s.probePending {
			s.sim.Cancel(s.probeEv)
			s.probePending = false
		}
		if s.sendPending {
			s.sim.Cancel(s.sendEv)
			s.sendPending = false
		}
		s.ensureSending()
	} else {
		if s.sending {
			s.sending = false
			if s.Telemetry != nil {
				s.Telemetry.AddPreemption(s.Flow.ID)
			}
		}
		if s.sendPending {
			s.sim.Cancel(s.sendEv)
			s.sendPending = false
		}
		s.sim.Cancel(s.rtoEv)
		s.ensureProbing()
	}
}

// fastRetransmit resends the oldest outstanding packet after three
// acknowledgments for later packets (per-packet ACKs make this the
// analogue of TCP's duplicate-ACK rule).
func (s *Sender) fastRetransmit(ackedIdx int) {
	if s.over || s.base >= s.numPkts || s.acked[s.base] || s.sentAt[s.base] == 0 {
		return
	}
	if ackedIdx <= s.base || s.sim.Now()-s.sentAt[s.base] < s.RTT() {
		return
	}
	s.dup++
	if s.dup < 3 {
		return
	}
	s.dup = 0
	idx := s.base
	pay := s.payload(idx)
	s.sentAt[idx] = s.sim.Now()
	if s.Telemetry != nil {
		s.Telemetry.AddRetransmit(s.Flow.ID)
	}
	wire := pay + netsim.IPTCPHeader + s.cfg.HdrBytes
	s.send(netsim.DATA, int64(idx)*netsim.MSS, pay, wire)
}

func (s *Sender) ensureSending() {
	if s.sendPending || s.over || !s.synAcked || s.rate <= 0 {
		return
	}
	now := s.sim.Now()
	at := now
	if s.lastWire > 0 {
		if t := s.lastSendAt + rateTime(int64(s.lastWire), s.rate); t > at {
			at = t
		}
	}
	s.sendPending = true
	s.sendEv = s.sim.At(at, s.sendFn)
}

func (s *Sender) sendOne() {
	s.sendPending = false
	if s.over || s.rate <= 0 {
		return
	}
	now := s.sim.Now()
	idx := -1
	switch {
	case s.base < s.nextPkt && s.base < s.numPkts && !s.acked[s.base] &&
		s.sentAt[s.base] > 0 && now-s.sentAt[s.base] > s.rto():
		idx = s.base
		if s.Telemetry != nil {
			s.Telemetry.AddRetransmit(s.Flow.ID)
		}
	case s.nextPkt < s.numPkts:
		idx = s.nextPkt
		s.nextPkt++
	case s.base < s.numPkts:
		s.sim.Cancel(s.rtoEv)
		wake := s.sentAt[s.base] + s.rto() + 1
		if wake <= now {
			wake = now + 1
		}
		s.rtoEv = s.sim.At(wake, s.rtoWakeFn)
		return
	default:
		return
	}
	pay := s.payload(idx)
	s.sentAt[idx] = now
	wire := pay + netsim.IPTCPHeader + s.cfg.HdrBytes
	s.send(netsim.DATA, int64(idx)*netsim.MSS, pay, wire)
	s.lastSendAt = now
	s.lastWire = wire
	s.ensureSending()
}

func (s *Sender) ensureProbing() {
	if s.probePending || s.over {
		return
	}
	s.probePending = true
	s.probeEv = s.sim.After(s.RTT(), s.probeFn)
}

// rtoWake resumes the send loop when the oldest outstanding packet's
// retransmission timer expires.
func (s *Sender) rtoWake() {
	if !s.over && s.rate > 0 {
		s.ensureSending()
	}
}

func (s *Sender) sendProbe() {
	s.probePending = false
	if s.over || s.rate > 0 {
		return
	}
	s.send(netsim.PROBE, 0, 0, netsim.ControlWire)
	s.ensureProbing()
}

func rateTime(bytes, bps int64) sim.Time {
	if bps <= 0 {
		return sim.MaxTime
	}
	return sim.Time(bytes * 8 * int64(sim.Second) / bps)
}

// Receiver is the shared receive-side state: it counts distinct delivered
// bytes and echoes headers back on the reverse path.
type Receiver struct {
	Flow    workload.Flow
	net     *netsim.Network
	s       *sim.Sim
	numPkts int
	got     []bool
	gotB    int64
	done    bool
	revPath []*netsim.Link
	// CapRate, if non-nil, lets the receiver reduce the granted rate in
	// the echoed header (receiver-capability clamp).
	CapRate func(hdr any)
	// OnDone fires when the last byte arrives.
	OnDone func()
}

// NewReceiver creates receive state for flow.
func NewReceiver(s *sim.Sim, net *netsim.Network, flow workload.Flow) *Receiver {
	n := int((flow.Size + netsim.MSS - 1) / netsim.MSS)
	return &Receiver{Flow: flow, net: net, s: s, numPkts: n, got: make([]bool, n)}
}

func (r *Receiver) payload(i int) int {
	if i < r.numPkts-1 {
		return netsim.MSS
	}
	return int(r.Flow.Size - int64(r.numPkts-1)*netsim.MSS)
}

// Done reports whether all bytes have arrived.
func (r *Receiver) Done() bool { return r.done }

// OnForward processes a forward packet and sends it back as its own
// acknowledgment, header included. A TERM is not answered, so its life
// ends here.
//
//pdq:hotpath
func (r *Receiver) OnForward(pkt *netsim.Packet) {
	if pkt.Kind == netsim.TERM {
		r.done = true
		pkt.Release()
		return
	}
	if pkt.Kind == netsim.DATA && !r.done {
		idx := int(pkt.Seq / netsim.MSS)
		if idx >= 0 && idx < r.numPkts && !r.got[idx] {
			r.got[idx] = true
			r.gotB += int64(r.payload(idx))
			if r.gotB >= r.Flow.Size {
				r.done = true
				if r.OnDone != nil {
					r.OnDone()
				}
			}
		}
	}
	if r.revPath == nil {
		r.revPath = netsim.ReversePath(pkt.Path)
	}
	if r.CapRate != nil {
		r.CapRate(pkt.Hdr)
	}
	pkt.TurnAround(r.revPath)
	r.net.Send(pkt)
}
