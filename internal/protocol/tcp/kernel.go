package tcp

import (
	"pdq/internal/netsim"
	"pdq/internal/protocol/xfer"
	"pdq/internal/sim"
	"pdq/internal/workload"
)

// Kernel is the embeddable TCP engine shared by the Reno baseline and
// the protocols layered on it (internal/protocol/dctcp,
// internal/protocol/pfabric): congestion-window state in whole-MSS
// units, RTT estimation, RTO with exponential backoff and go-back-N
// timeout recovery, fast retransmit, and fast recovery with
// NewReno-style partial-ACK retransmission.
//
// The embedding protocol supplies segment emission through the send
// callback (packet composition — headers, ECN, priority stamping — is
// the variant's business) and drives the kernel from its ACK handler
// via ProcessAck. Variant-specific window reductions (DCTCP's α-scaled
// cut) go through ECNCut.
type Kernel struct {
	// Environment, bound once by Init.
	Sim  *sim.Sim
	Cfg  Config
	Coll *workload.Collector

	flowID  uint64
	numPkts int
	send    func(idx int) // emit segment idx

	sndUna, sndNext int
	cwnd, ssthresh  float64
	dupAcks         int
	inRecovery      bool
	recover         int // highest packet outstanding when loss was detected

	srtt, rttvar sim.Time
	backoff      sim.Time
	rtoPending   bool
	rtoEv        sim.EventRef
	rtoFn        func() // pre-bound onRTO; armRTO runs once per ACK
	done         bool
}

// Init binds the kernel's environment and resets the window to the
// configured initial state. send transmits segment idx; it is called
// for both first transmissions and retransmissions.
func (k *Kernel) Init(s *sim.Sim, cfg Config, coll *workload.Collector, flowID uint64, numPkts int, send func(idx int)) {
	k.Sim, k.Cfg, k.Coll = s, cfg, coll
	k.flowID, k.numPkts, k.send = flowID, numPkts, send
	k.cwnd = cfg.InitCwnd
	k.ssthresh = cfg.MaxCwnd
	k.rtoFn = k.onRTO
}

// SndUna returns the first unacknowledged segment index.
func (k *Kernel) SndUna() int { return k.sndUna }

// SndNext returns the next segment index to transmit.
func (k *Kernel) SndNext() int { return k.sndNext }

// NumPkts returns the flow's segment count.
func (k *Kernel) NumPkts() int { return k.numPkts }

// Cwnd returns the congestion window in MSS units.
func (k *Kernel) Cwnd() float64 { return k.cwnd }

// Done reports whether every segment has been acknowledged.
func (k *Kernel) Done() bool { return k.done }

func (k *Kernel) rto() sim.Time {
	var r sim.Time
	if k.srtt == 0 {
		r = 3 * k.Cfg.InitRTT
	} else {
		r = k.srtt + 4*k.rttvar
	}
	if r < k.Cfg.RTOmin {
		r = k.Cfg.RTOmin
	}
	if k.backoff > 0 {
		r += k.backoff
	}
	return r
}

// TrySend fills the congestion window with back-to-back segments (the
// access link queue paces the burst) and keeps the RTO armed.
func (k *Kernel) TrySend() {
	if k.done {
		return
	}
	for k.sndNext < k.numPkts && k.sndNext-k.sndUna < int(k.cwnd) {
		k.send(k.sndNext)
		k.sndNext++
	}
	if k.sndNext > k.sndUna {
		k.armRTO()
	}
}

func (k *Kernel) armRTO() {
	if k.rtoPending {
		k.Sim.Cancel(k.rtoEv)
	}
	k.rtoPending = true
	k.rtoEv = k.Sim.After(k.rto(), k.rtoFn)
}

func (k *Kernel) onRTO() {
	k.rtoPending = false
	if k.done || k.sndUna >= k.numPkts {
		return
	}
	// Timeout: multiplicative backoff, collapse to slow start and
	// go-back-N from the first unacknowledged segment.
	k.ssthresh = maxf(float64(k.sndNext-k.sndUna)/2, 2)
	k.cwnd = 1
	k.dupAcks = 0
	k.inRecovery = false
	if k.backoff == 0 {
		k.backoff = k.rto()
	} else {
		k.backoff *= 2
	}
	k.sndNext = k.sndUna
	k.Coll.AddRetransmit(k.flowID) // go-back-N resend counts once
	k.TrySend()
}

// ECNCut applies an α-scaled multiplicative window reduction (DCTCP's
// response to an ECN-marked observation window): cwnd ← cwnd·(1−α/2)
// floored at one segment, with ssthresh tracking the reduced window.
func (k *Kernel) ECNCut(alpha float64) {
	k.cwnd = maxf(k.cwnd*(1-alpha/2), 1)
	k.ssthresh = maxf(k.cwnd, 2)
}

// ProcessAck advances the kernel on a cumulative acknowledgment: ackIdx
// is the next expected segment index; echoSentAt, when nonzero, is the
// acknowledged segment's send timestamp (the RTT sample). It runs the
// full Reno state machine — new-ACK window growth, NewReno partial-ACK
// retransmission, duplicate-ACK fast retransmit — and tops the window
// back up.
func (k *Kernel) ProcessAck(ackIdx int, echoSentAt sim.Time) {
	if k.done {
		return
	}
	if echoSentAt > 0 {
		sample := k.Sim.Now() - echoSentAt
		if k.srtt == 0 {
			k.srtt = sample
			k.rttvar = sample / 2
		} else {
			d := k.srtt - sample
			if d < 0 {
				d = -d
			}
			k.rttvar = (3*k.rttvar + d) / 4
			k.srtt = (7*k.srtt + sample) / 8
		}
	}
	switch {
	case ackIdx > k.sndUna:
		k.backoff = 0
		k.sndUna = ackIdx
		if k.sndNext < k.sndUna {
			k.sndNext = k.sndUna
		}
		if k.inRecovery {
			if ackIdx > k.recover {
				k.inRecovery = false
				k.cwnd = k.ssthresh
				k.dupAcks = 0
			} else {
				// NewReno partial ACK: retransmit the next hole.
				k.Coll.AddRetransmit(k.flowID)
				k.send(k.sndUna)
				k.cwnd = maxf(k.cwnd-float64(ackIdx-k.sndUna)+1, 1)
			}
		} else {
			k.dupAcks = 0
			if k.cwnd < k.ssthresh {
				k.cwnd++ // slow start
			} else {
				k.cwnd += 1 / k.cwnd // congestion avoidance
			}
		}
		if k.cwnd > k.Cfg.MaxCwnd {
			k.cwnd = k.Cfg.MaxCwnd
		}
		if k.sndUna >= k.numPkts {
			k.done = true
			k.Sim.Cancel(k.rtoEv)
			return
		}
		k.armRTO()
	case ackIdx == k.sndUna && k.sndNext > k.sndUna:
		k.dupAcks++
		if k.inRecovery {
			k.cwnd++ // fast recovery inflation
		} else if k.dupAcks == 3 {
			// Fast retransmit.
			k.ssthresh = maxf(float64(k.sndNext-k.sndUna)/2, 2)
			k.cwnd = k.ssthresh + 3
			k.inRecovery = true
			k.recover = k.sndNext
			k.Coll.AddRetransmit(k.flowID)
			k.send(k.sndUna)
		}
	}
	k.TrySend()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func numSegs(size int64) int { return int((size + netsim.MSS - 1) / netsim.MSS) }

// segPayload is the payload size of segment i when numPkts segments
// cover size bytes: a full MSS for all but the last.
func segPayload(i, numPkts int, size int64) int {
	if i < numPkts-1 {
		return netsim.MSS
	}
	return int(size - int64(numPkts-1)*netsim.MSS)
}

// Conn is the shared data-path shell of a kernel-driven connection:
// the kernel plus segment composition over a source-routed path. The
// variant points are ExtraHdr — per-segment header bytes beyond the
// TCP/IP headers charged on every packet — and PrioFn, invoked per
// data segment for its priority stamp (pFabric's remaining-size
// priorities). Plain TCP and DCTCP use the zero values of both.
type Conn struct {
	Kernel
	Net      *netsim.Network
	Flow     workload.Flow
	Path     []*netsim.Link
	ExtraHdr int
	PrioFn   func() uint8
}

// Open binds the connection to flow f leaving host src over path, with the
// kernel on src's owner engine and reset to cfg's initial window. The
// variant sets its points (before or after) and calls TrySend.
func (c *Conn) Open(src *netsim.Host, cfg Config, coll *workload.Collector, f workload.Flow, path []*netsim.Link) {
	c.Net, c.Flow, c.Path = src.Network(), f, path
	c.Init(c.Net.SimFor(src.ID()), cfg, coll, f.ID, numSegs(f.Size), c.SendSeg)
}

// HandleAck implements protocol.Sender: a cumulative ACK names the next
// expected segment and echoes the acknowledged one's send time.
//
//pdq:hotpath
func (c *Conn) HandleAck(pkt *netsim.Packet) {
	c.ProcessAck(int(pkt.Seq/netsim.MSS), pkt.EchoSentAt)
}

// SendSeg composes and transmits segment idx on a packet from the source
// host's pool; it is the kernel's send callback. The host's agent releases
// the packet when it comes back as an acknowledgment.
//
//pdq:hotpath
func (c *Conn) SendSeg(idx int) {
	pay := segPayload(idx, c.numPkts, c.Flow.Size)
	src := c.Path[0].From.ID()
	pkt := c.Net.NewPacket(src)
	pkt.Flow = netsim.FlowID(c.Flow.ID)
	pkt.Kind = netsim.DATA
	pkt.Src = src
	pkt.Dst = c.Path[len(c.Path)-1].To.ID()
	pkt.Seq = int64(idx) * netsim.MSS
	pkt.Payload = pay
	pkt.Wire = pay + netsim.IPTCPHeader + c.ExtraHdr
	pkt.Path = c.Path
	pkt.EchoSentAt = c.Sim.Now() // the kernel's engine: the owner shard's in sharded runs
	if c.PrioFn != nil {
		pkt.Prio = c.PrioFn()
	}
	c.Net.Send(pkt)
}

// Receiver is the shared cumulative-ACK receiver of the kernel-based
// protocols: it tracks in-order delivery, reports completion to the
// collector, and acknowledges every data packet with one cumulative
// ACK (no delayed ACKs). The variant points are EchoECN — copy the data
// packet's CE mark into the ACK's ECE bit (DCTCP) — and AckPrio, the
// priority band stamped on ACKs (pFabric keeps them in the top band).
type Receiver struct {
	Net     *netsim.Network
	Coll    *workload.Collector
	Flow    workload.Flow
	NumPkts int
	EchoECN bool
	AckPrio uint8

	// Sim is the destination host's owner engine; its clock stamps the
	// completion.
	Sim *sim.Sim

	got     xfer.Bitset
	gotB    int64
	rcvNext int
	done    bool
	revPath []*netsim.Link
}

// NewReceiver returns the receive side of f on host dst.
func NewReceiver(dst *netsim.Host, coll *workload.Collector, f workload.Flow) *Receiver {
	n, net := numSegs(f.Size), dst.Network()
	return &Receiver{Net: net, Coll: coll, Flow: f, NumPkts: n, Sim: net.SimFor(dst.ID()), got: xfer.NewBitset(n)}
}

// OnForward implements protocol.Receiver (TCP's only forward packets are
// data): it registers the segment and sends the packet back along the
// reverse path as the cumulative ACK.
//
//pdq:hotpath
func (r *Receiver) OnForward(pkt *netsim.Packet) {
	idx := int(pkt.Seq / netsim.MSS)
	if idx >= 0 && idx < r.NumPkts && !r.got.Has(idx) {
		r.got.Set(idx)
		r.gotB += int64(segPayload(idx, r.NumPkts, r.Flow.Size))
		for r.rcvNext < r.NumPkts && r.got.Has(r.rcvNext) {
			r.rcvNext++
		}
		if !r.done && r.gotB >= r.Flow.Size {
			r.done = true
			r.Coll.Finish(r.Flow.ID, r.Sim.Now())
		}
	}
	if r.revPath == nil {
		r.revPath = netsim.ReversePath(pkt.Path)
	}
	ece := r.EchoECN && pkt.CE
	pkt.TurnAround(r.revPath)
	pkt.Seq = int64(r.rcvNext) * netsim.MSS
	pkt.ECE = ece
	pkt.Prio = r.AckPrio
	r.Net.Send(pkt)
}
