// Package xfer is the tree's one rate-paced, per-packet-acknowledged,
// reliable sender and receiver: the paper's §3.1 machine — a SYN
// handshake, data paced at the switch-granted rate, a probe every few
// RTTs while the granted rate is zero, timeout and fast retransmission,
// TERM on completion — which PDQ (internal/core) and its RCP and D3
// baselines all run.
//
// The sender comes in two halves. A Window is one flow: packetization,
// the acknowledgment bitmap and the send window. Its memory follows what
// is in flight, not the flow's size: one bit per packet for the
// acknowledged set, and send times only for the outstanding span (see
// Window.sent). A Pacer is one path of
// that flow: granted rate, RTT estimate and the SYN, send, probe and RTO
// timers. RCP and D3 attach one pacer to a window; Multipath PDQ attaches
// one per subflow, all drawing unsent packets from the shared window,
// which is what continuously shifts load from paused subflows to sending
// ones (§6, DESIGN.md §5). A protocol defines only its header format and
// feedback rule, as the Hooks of each pacer.
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

// Hooks is a protocol's side of one pacer. The protocol's per-(sub)flow
// object implements it and embeds the Pacer, so binding the hooks costs no
// allocation.
type Hooks interface {
	// Stamp writes the protocol's scheduling header on an outgoing packet,
	// in place on the header value riding with it (netsim.HeaderOf).
	Stamp(pkt *netsim.Packet)
	// Feedback digests an acknowledgment's header and returns the rate the
	// pacer should now use; 0 pauses it, and it probes instead.
	Feedback(pkt *netsim.Packet) int64
	// ProbeRTTs is the probe interval of a paused pacer in RTTs (PDQ's
	// I_S, §3.3.2); values below 1 mean one RTT.
	ProbeRTTs() float64
	// AfterAck runs once the acknowledgment is accounted for and the flow
	// is still incomplete. It reports whether it stopped the flow (PDQ's
	// Early Termination, which needs the updated byte count).
	AfterAck() bool
}

// Plain supplies the optional hooks for protocols that probe every RTT and
// never stop a flow after an acknowledgment; embed it beside the Pacer.
type Plain struct{}

// ProbeRTTs implements Hooks.
func (Plain) ProbeRTTs() float64 { return 1 }

// AfterAck implements Hooks.
func (Plain) AfterAck() bool { return false }

// Window is the per-flow half of the sender, shared by the flow's pacers.
type Window struct {
	Flow workload.Flow

	eng *sim.Sim // source host's owner engine; every sender timer lives here
	net *netsim.Network
	src netsim.NodeID
	cfg *Config
	tel *workload.Collector // retransmit and preemption counts

	n     int    // packets in the flow
	acked Bitset // per packet
	// sent is the last transmission time of each outstanding packet — the
	// span [base, nextPkt) — packet i at sent[i&(len(sent)-1)]. Every read
	// is of base and every write of base (a retransmission) or nextPkt-1
	// (a first transmission), so a power-of-two ring as long as the widest
	// span the flow reaches holds them all (stamp).
	sent    []sim.Time
	ackedN  int
	ackedB  int64
	nextPkt int // lowest never-sent packet
	base    int // lowest unacked packet (snd_una)
	dup     int // acks beyond base while base is outstanding
	pacers  []*Pacer
	one     [1]*Pacer // pacers' storage while the flow has one path
	over    bool      // completed or stopped; all activity has ceased
}

// ringMin is the send-time ring's first length for a flow of at least as
// many packets; a shorter flow gets the power of two that covers it.
const ringMin = 32

// NewWindow creates the send window of flow on host src. Outcome counters
// go to tel.
func NewWindow(src *netsim.Host, tel *workload.Collector, cfg *Config, flow workload.Flow) *Window {
	n, net := numPackets(flow.Size), src.Network()
	w := &Window{
		Flow: flow, eng: net.SimFor(src.ID()), net: net, src: src.ID(), cfg: cfg, tel: tel,
		n: n, acked: NewBitset(n),
	}
	w.pacers = w.one[:0]
	return w
}

func numPackets(size int64) int { return int((size + netsim.MSS - 1) / netsim.MSS) }

// payload is the size of segment i of n carrying size bytes in total.
func payload(size int64, n, i int) int {
	if i < n-1 {
		return netsim.MSS
	}
	return int(size - int64(n-1)*netsim.MSS)
}

// Bitset is one flag per packet of a flow, 64 to a word: a sender's
// acknowledged set, a receiver's received set.
type Bitset []uint64

// NewBitset returns n cleared flags.
func NewBitset(n int) Bitset { return make(Bitset, (n+63)>>6) }

// Has reports flag i.
func (b Bitset) Has(i int) bool { return b[i>>6]&(1<<(i&63)) != 0 }

// Set raises flag i.
func (b Bitset) Set(i int) { b[i>>6] |= 1 << (i & 63) }

// sentAt returns when packet i, outstanding or never sent, last left; 0
// means never.
func (w *Window) sentAt(i int) sim.Time {
	if i >= w.nextPkt {
		return 0
	}
	return w.sent[i&(len(w.sent)-1)]
}

// stamp records that packet i — base or nextPkt-1 — left at t. Only a
// first transmission widens the span, by one packet, so a ring it
// overflows doubles and re-homes the packets that were already outstanding
// under the wider mask.
func (w *Window) stamp(i int, t sim.Time) {
	if w.nextPkt-w.base > len(w.sent) {
		size := 2 * len(w.sent)
		if size == 0 {
			size = 1
			for size < ringMin && size < w.n {
				size *= 2
			}
		}
		sent := make([]sim.Time, size)
		for j := w.base; j < w.nextPkt-1; j++ {
			sent[j&(size-1)] = w.sent[j&(len(w.sent)-1)]
		}
		w.sent = sent
	}
	w.sent[i&(len(w.sent)-1)] = t
}

// ack accounts the acknowledgment of packet idx, which may repeat an
// earlier one or lie outside the flow, and moves base past every
// acknowledged packet.
func (w *Window) ack(idx int) {
	if idx < 0 || idx >= w.n || w.acked.Has(idx) {
		return
	}
	w.acked.Set(idx)
	w.ackedN++
	w.ackedB += int64(payload(w.Flow.Size, w.n, idx))
	old := w.base
	for w.base < w.n && w.acked.Has(w.base) {
		w.base++
	}
	if w.base != old {
		w.dup = 0
	}
}

// hole reports whether the acknowledgment of packet ackedIdx, arriving at
// now, is the third past an outstanding base that left at least rtt ago:
// the sign of a lost packet that fastRetransmit resends.
func (w *Window) hole(ackedIdx int, now, rtt sim.Time) bool {
	sent := w.sentAt(w.base)
	if w.base >= w.n || sent == 0 || ackedIdx <= w.base || now-sent < rtt {
		return false
	}
	w.dup++
	if w.dup < 3 {
		return false
	}
	w.dup = 0
	return true
}

// pick chooses sendOne's transmission at now, rto being the pacer's
// retransmission timeout: the oldest outstanding packet once it has timed
// out (retx), else the lowest packet never sent, which it counts as sent.
// With nothing to send it returns idx -1 and, while packets are
// outstanding, wake: the instant after the oldest one times out.
func (w *Window) pick(now, rto sim.Time) (idx int, retx bool, wake sim.Time) {
	switch sent := w.sentAt(w.base); {
	case w.base < w.nextPkt && sent > 0 && now-sent > rto:
		return w.base, true, 0
	case w.nextPkt < w.n:
		w.nextPkt++
		return w.nextPkt - 1, false, 0
	case w.base < w.n:
		wake = sent + rto + 1
		if wake <= now {
			wake = now + 1
		}
		return -1, false, wake
	}
	return -1, false, 0
}

// Sim returns the engine the window's timers run on.
func (w *Window) Sim() *sim.Sim { return w.eng }

// Remaining returns the unacknowledged byte count.
func (w *Window) Remaining() int64 { return w.Flow.Size - w.ackedB }

// Over reports whether the flow has completed or been stopped.
func (w *Window) Over() bool { return w.over }

// Pacers returns the attached pacers, indexed by subflow.
func (w *Window) Pacers() []*Pacer { return w.pacers }

// Attach initializes p as the window's next pacer — subflow len(Pacers())
// — over path, driven by h.
func (w *Window) Attach(p *Pacer, path []*netsim.Link, h Hooks) {
	*p = Pacer{Path: path, w: w, hooks: h, sub: len(w.pacers)}
	w.pacers = append(w.pacers, p)
}

// Stop halts every pacer and sends kind (normally TERM) along each path so
// the switches release the flow's state.
func (w *Window) Stop(kind netsim.Kind) {
	if w.over {
		return
	}
	w.over = true
	for _, p := range w.pacers {
		p.stopSending()
		p.stopProbing()
		w.eng.Cancel(p.synEv)
		p.send(kind, 0, 0, netsim.ControlWire)
	}
}

// Pacer is the per-path half of the sender. Path may be replaced while the
// flow runs (failover); packets already in flight keep the old one.
type Pacer struct {
	Path []*netsim.Link

	w     *Window
	hooks Hooks
	sub   int

	rate       int64    // current granted rate
	rtt        sim.Time // EWMA; 0 until the first sample
	synTries   int
	lastSendAt sim.Time // transmission time of the previous data packet
	lastWire   int      // its wire size; pacing gap = lastWire at the current rate

	synAcked     bool
	sending      bool // had a positive rate; a drop back to 0 is a preemption
	sendPending  bool
	probePending bool

	synEv, sendEv, probeEv, rtoEv sim.EventRef
}

// The pacer's four timers schedule the pacer itself, seen as one of these
// Runners: a pointer conversion, so arming a timer allocates nothing and
// no callback has to be bound per pacer.
type (
	sendTimer  Pacer
	probeTimer Pacer
	synTimer   Pacer
	rtoTimer   Pacer
)

func (t *sendTimer) RunEvent()  { (*Pacer)(t).sendOne() }
func (t *probeTimer) RunEvent() { (*Pacer)(t).sendProbe() }
func (t *synTimer) RunEvent()   { (*Pacer)(t).sendSYN() }
func (t *rtoTimer) RunEvent()   { (*Pacer)(t).rtoWake() }

// Window returns the flow state the pacer draws from.
func (p *Pacer) Window() *Window { return p.w }

// Rate returns the current granted rate.
func (p *Pacer) Rate() int64 { return p.rate }

// SRTT returns the smoothed RTT, 0 before the first sample.
func (p *Pacer) SRTT() sim.Time { return p.rtt }

// RTT returns the smoothed RTT estimate (InitRTT before the first sample).
func (p *Pacer) RTT() sim.Time {
	if p.rtt > 0 {
		return p.rtt
	}
	return p.w.cfg.InitRTT
}

func (p *Pacer) rto() sim.Time {
	r := 4 * p.RTT()
	if r < p.w.cfg.RTOmin {
		r = p.w.cfg.RTOmin
	}
	return r
}

// send takes a packet from the source host's pool, fills it and injects
// it; the protocol's agent releases it when it comes back as an
// acknowledgment.
//
//pdq:hotpath
func (p *Pacer) send(kind netsim.Kind, seq int64, payload, wire int) {
	w := p.w
	pkt := w.net.NewPacket(w.src)
	pkt.Flow = netsim.FlowID(w.Flow.ID)
	pkt.Subflow = p.sub
	pkt.Kind = kind
	pkt.Src = w.src
	pkt.Dst = p.Path[len(p.Path)-1].To.ID()
	pkt.Seq = seq
	pkt.Payload = payload
	pkt.Wire = wire
	pkt.Path = p.Path
	pkt.EchoSentAt = w.eng.Now()
	p.hooks.Stamp(pkt)
	w.net.Send(pkt)
}

// sendData (re)transmits segment idx.
func (p *Pacer) sendData(idx int) int {
	w := p.w
	pay := payload(w.Flow.Size, w.n, idx)
	w.stamp(idx, w.eng.Now())
	wire := pay + netsim.IPTCPHeader + w.cfg.HdrBytes
	p.send(netsim.DATA, int64(idx)*netsim.MSS, pay, wire)
	return wire
}

// Start begins the SYN handshake.
func (p *Pacer) Start() { p.sendSYN() }

func (p *Pacer) sendSYN() {
	if p.w.over || p.synAcked {
		return
	}
	p.synTries++
	if p.synTries > 10 {
		return // give up silently; the stale timeout cleans up switches
	}
	p.send(netsim.SYN, 0, 0, netsim.ControlWire)
	eng := p.w.eng
	p.synEv = eng.AtRunner(eng.Now()+3*p.w.cfg.InitRTT*sim.Time(p.synTries), (*synTimer)(p))
}

// HandleAck processes SYNACK, ACK and PROBEACK feedback on the pacer the
// packet's subflow names: it adopts the path-wide rate decision, advances
// the acknowledgment state and drives the send/probe machinery (§3.1).
// The packet stays the caller's: the agent releases it afterwards.
//
//pdq:hotpath
func (w *Window) HandleAck(pkt *netsim.Packet) {
	if w.over || pkt.Subflow >= len(w.pacers) {
		return
	}
	p := w.pacers[pkt.Subflow]
	if pkt.EchoSentAt > 0 {
		sample := w.eng.Now() - pkt.EchoSentAt
		if p.rtt == 0 {
			p.rtt = sample
		} else {
			p.rtt = (7*p.rtt + sample) / 8
		}
	}
	p.rate = p.hooks.Feedback(pkt)
	switch pkt.Kind {
	case netsim.SYNACK:
		if !p.synAcked {
			p.synAcked = true
			w.eng.Cancel(p.synEv)
		}
	case netsim.ACK:
		idx := int(pkt.Seq / netsim.MSS)
		w.ack(idx)
		p.fastRetransmit(idx)
	}
	if w.ackedN == w.n {
		w.Stop(netsim.TERM)
		return
	}
	if p.hooks.AfterAck() {
		return
	}
	if p.rate > 0 {
		p.sending = true
		p.stopProbing()
		// Re-arm the pacer at the new rate: a pending send scheduled under
		// an older (slower) grant would otherwise stand.
		if p.sendPending {
			w.eng.Cancel(p.sendEv)
			p.sendPending = false
		}
		p.ensureSending()
	} else {
		if p.sending {
			p.sending = false
			w.tel.AddPreemption(w.Flow.ID)
		}
		p.stopSending()
		p.ensureProbing()
	}
}

// fastRetransmit recovers lost packets without waiting for the RTO: three
// acknowledgments for packets beyond the oldest outstanding one indicate a
// hole (per-packet ACKs make this the analogue of TCP's duplicate-ACK
// rule), so the oldest packet is resent immediately.
//
// Plain reordering across multipath subflows is ignored: acks count only
// once the hole is at least an RTT old (Window.hole).
func (p *Pacer) fastRetransmit(ackedIdx int) {
	w := p.w
	if w.over || !w.hole(ackedIdx, w.eng.Now(), p.RTT()) {
		return
	}
	w.tel.AddRetransmit(w.Flow.ID)
	p.sendData(w.base)
}

// ensureSending schedules the paced send loop if it is not running. The
// next transmission is one serialization time of the previous packet at
// the *current* rate, so a rate increase immediately tightens the pacing
// (and a decrease stretches it).
func (p *Pacer) ensureSending() {
	if p.sendPending || p.w.over || !p.synAcked {
		return
	}
	at := p.w.eng.Now()
	if p.lastWire > 0 {
		if t := p.lastSendAt + RateTime(int64(p.lastWire), p.rate); t > at {
			at = t
		}
	}
	p.sendPending = true
	p.sendEv = p.w.eng.AtRunner(at, (*sendTimer)(p))
}

func (p *Pacer) stopSending() {
	if p.sendPending {
		p.w.eng.Cancel(p.sendEv)
		p.sendPending = false
	}
	p.w.eng.Cancel(p.rtoEv)
}

// sendOne transmits the next packet: a timed-out retransmission first,
// else the next unsent packet; then re-arms itself one serialization time
// later at the current rate.
func (p *Pacer) sendOne() {
	p.sendPending = false
	w := p.w
	if w.over || p.rate <= 0 {
		return
	}
	now := w.eng.Now()
	idx, retx, wake := w.pick(now, p.rto())
	if idx < 0 {
		if wake > 0 {
			// Everything sent, waiting for acknowledgments: wake up when the
			// oldest outstanding packet times out.
			w.eng.Cancel(p.rtoEv)
			p.rtoEv = w.eng.AtRunner(wake, (*rtoTimer)(p))
		}
		return
	}
	if retx {
		w.tel.AddRetransmit(w.Flow.ID)
	}
	p.lastWire = p.sendData(idx)
	p.lastSendAt = now
	p.ensureSending()
}

// ensureProbing arms the probe timer: a paused pacer sends a probe every
// max(1, ProbeRTTs) RTTs to refresh its rate feedback (§3.1, §3.3.2).
func (p *Pacer) ensureProbing() {
	if p.probePending || p.w.over {
		return
	}
	mult := p.hooks.ProbeRTTs()
	if mult < 1 {
		mult = 1
	}
	p.probePending = true
	eng := p.w.eng
	p.probeEv = eng.AtRunner(eng.Now()+sim.Time(mult*float64(p.RTT())), (*probeTimer)(p))
}

func (p *Pacer) stopProbing() {
	if p.probePending {
		p.w.eng.Cancel(p.probeEv)
		p.probePending = false
	}
}

// rtoWake resumes the send loop when the oldest outstanding packet's
// retransmission timer expires.
func (p *Pacer) rtoWake() {
	if !p.w.over && p.rate > 0 {
		p.ensureSending()
	}
}

func (p *Pacer) sendProbe() {
	p.probePending = false
	if p.w.over || p.rate > 0 {
		return
	}
	p.send(netsim.PROBE, 0, 0, netsim.ControlWire)
	p.ensureProbing()
}

// RateTime returns the time to push bytes at bps.
func RateTime(bytes, bps int64) sim.Time {
	if bps <= 0 {
		return sim.MaxTime
	}
	return sim.Time(bytes * 8 * int64(sim.Second) / bps)
}

// Receiver is one flow's receive side: it counts distinct delivered bytes
// and echoes every forward packet, header included, back on the reverse of
// the path it came over. Multipath subflows share it — the paper's single
// resequencing buffer (§6) — so completion is detected on the union of
// bytes received over all paths.
type Receiver struct {
	Flow workload.Flow

	host  *netsim.Host
	eng   *sim.Sim // destination host's owner engine
	tel   *workload.Collector
	clamp func(pkt *netsim.Packet, nic int64)

	n        int    // packets in the flow
	got      Bitset // per packet
	gotB     int64
	done     bool
	revPaths [][]*netsim.Link // cached ACK path, indexed by subflow
}

// NewReceiver creates the receive state of flow on host dst for the given
// number of subflows. The last byte's arrival is reported to tel. clamp
// lowers the rate granted in the echoed header to the receiver's own
// capability, its NIC rate (§3.2).
func NewReceiver(dst *netsim.Host, tel *workload.Collector, flow workload.Flow, subflows int, clamp func(pkt *netsim.Packet, nic int64)) *Receiver {
	n := numPackets(flow.Size)
	return &Receiver{
		Flow: flow, host: dst, eng: dst.Network().SimFor(dst.ID()), tel: tel, clamp: clamp,
		n: n, got: NewBitset(n), revPaths: make([][]*netsim.Link, subflows),
	}
}

// Done reports whether all bytes have arrived.
func (r *Receiver) Done() bool { return r.done }

// OnForward handles SYN, DATA, PROBE and TERM: it records delivered bytes
// and sends the packet back as its own acknowledgment, the scheduling
// header riding along. A TERM is not answered, so its life ends here.
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
		if idx >= 0 && idx < r.n && !r.got.Has(idx) {
			r.got.Set(idx)
			r.gotB += int64(payload(r.Flow.Size, r.n, idx))
			if r.gotB >= r.Flow.Size {
				r.done = true
				r.tel.Finish(r.Flow.ID, r.eng.Now())
			}
		}
	}
	rev := r.revPaths[pkt.Subflow]
	if rev == nil {
		rev = netsim.ReversePath(pkt.Path)
		r.revPaths[pkt.Subflow] = rev
	}
	r.clamp(pkt, r.host.NICRate())
	pkt.TurnAround(rev)
	r.host.Network().Send(pkt)
}
