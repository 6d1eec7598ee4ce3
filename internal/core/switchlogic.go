package core

import (
	"pdq/internal/netsim"
)

// SwitchLogic implements the PDQ flow controller (Algorithms 1 and 3) and
// rate controller (§3.3.3) for every forwarding element of a network. One
// instance is shared by all switches (and relaying hosts, in
// server-centric topologies); per-link state is keyed by the egress link.
//
// The instance is shard-safe (DESIGN.md §14): every packet is processed
// on the shard owning the forwarding node, which also owns the link
// state the processing touches (the egress link starts at that node, and
// reverse processing keys the ingress link's peer — same From node).
// Clocks are read from the link's owner engine, the states table is
// preallocated densely at Install so no shard ever reallocates it, and
// each slot is written only by its owner shard.
type SwitchLogic struct {
	cfg *Config
	// states is indexed by the dense link ID — a flat table instead of a
	// map, keeping the per-packet lookup on the hot path pointer-chase- and
	// hash-free.
	states []*linkState
}

// NewSwitchLogic returns switch logic for one experiment covering nLinks
// directed links. cfg must already have defaults applied (System does
// this). Per-link clocks come from the links themselves (Link.OwnerNow),
// so the logic needs no clock of its own.
func NewSwitchLogic(cfg *Config, nLinks int) *SwitchLogic {
	return &SwitchLogic{cfg: cfg, states: make([]*linkState, nLinks)}
}

// state returns the PDQ state of a directed link, creating it on first
// use. The slot write is safe under sharding: only the link's owner shard
// processes packets keyed to it, and the table itself was sized at
// Install (the GrowTo is a single-engine-only fallback for hand-built
// setups that add links after construction).
func (l *SwitchLogic) state(link *netsim.Link) *linkState {
	if link.ID >= len(l.states) {
		// Never reached under sharding (the table is full-size from
		// Install), so the slice-header write stays single-threaded.
		l.states = netsim.GrowTo(l.states, link.ID)
	}
	st := l.states[link.ID]
	if st == nil {
		st = newLinkState(l.cfg, link.From.ID(), link)
		l.states[link.ID] = st
	}
	return st
}

// ResetLinkState implements the fault layer's SoftStateResetter: a switch
// crash discards the link's entire PDQ state — flow list, rate controller,
// dampening history and the RCP fallback estimate. Nothing else is needed:
// the state is soft (paper §3.3.1), so the next forward packet re-admits
// its flow into a fresh linkState and the switch converges back from the
// traffic itself.
func (l *SwitchLogic) ResetLinkState(link *netsim.Link) {
	if link.ID < len(l.states) {
		l.states[link.ID] = nil
	}
}

// StateOf exposes a link's flow-list length and rate-controller value for
// measurement (tests, DESIGN.md §4 memory accounting).
func (l *SwitchLogic) StateOf(link *netsim.Link) (listLen int, c int64) {
	if link.ID < len(l.states) {
		if st := l.states[link.ID]; st != nil {
			return len(st.flows), st.c
		}
	}
	return 0, 0
}

// MaxListLen returns the largest flow list across all links, a proxy for
// the paper's switch memory consumption argument (§3.3.1).
func (l *SwitchLogic) MaxListLen() int {
	m := 0
	for _, st := range l.states {
		if st != nil && len(st.flows) > m {
			m = len(st.flows)
		}
	}
	return m
}

// Process implements netsim.SwitchLogic. Forward packets (SYN, DATA,
// PROBE, TERM) are processed against the egress link's state (Algorithm
// 1); reverse packets (acknowledgments) against the forward-direction
// link, which is the peer of the ACK's ingress (Algorithm 3). Packets
// without a PDQ header pass through untouched.
//
//pdq:hotpath
func (l *SwitchLogic) Process(at netsim.Node, pkt *netsim.Packet, ingress, egress *netsim.Link) bool {
	hdr, ok := pkt.Hdr.(*netsim.SchedHeader)
	if !ok {
		return true
	}
	if pkt.Kind.Forward() {
		st := l.state(egress)
		if pkt.Kind == netsim.TERM {
			st.remove(keyOf(pkt))
			return true
		}
		l.onForward(st, pkt, hdr)
		return true
	}
	if ingress != nil && ingress.Peer != nil {
		st := l.state(ingress.Peer)
		l.onReverse(st, pkt, hdr)
	}
	return true
}

// onForward is Algorithm 1, run when a switch receives a SYN, DATA or
// PROBE packet.
//
//pdq:hotpath
func (l *SwitchLogic) onForward(st *linkState, pkt *netsim.Packet, h *netsim.SchedHeader) {
	now := st.link.OwnerNow()
	st.maybeUpdateC(now)
	key := keyOf(pkt)

	// Paused by another switch: forget the flow so its bandwidth can be
	// granted elsewhere; do not touch the header.
	if h.PauseBy != netsim.PauseNone && h.PauseBy != st.me {
		st.remove(key)
		return
	}

	crit := Criticality{Deadline: internalDeadline(h.Deadline), TTrans: h.TTrans, Key: key}
	var f *flowInfo
	if i := st.find(key); i >= 0 {
		f = st.flows[i]
	} else {
		f = st.admit(now, key, crit)
		if f == nil {
			// Flow list full of more critical flows: fall back to the
			// embedded RCP controller on the leftover bandwidth
			// (§3.3.1).
			if r := st.rcpRate(key); r < h.Rate {
				h.Rate = r
			}
			if h.Rate == 0 {
				h.PauseBy = st.me
			}
			return
		}
	}

	// Refresh <D_i, T_i> and the flow's demand from the header, and
	// restore criticality order (T_i shrinks as the flow progresses,
	// emulating SRPT).
	f.deadline = crit.Deadline
	f.ttrans = h.TTrans
	f.demand = h.Rate
	f.seen = now
	idx := st.reposition(f)

	w := st.availbw(idx)
	if h.Rate < w {
		w = h.Rate
	}
	if w < st.minGrant() {
		w = 0 // a sliver is a pause, not a rate (Config.MinGrantFrac)
	}
	if w > 0 {
		if !f.sending() && st.dampened(now, key) {
			// Dampening: a different paused flow was just accepted;
			// suppress flow-switching churn (§3.3.2).
			h.PauseBy = st.me
			f.pauseBy = st.me
			return
		}
		wasPaused := !f.sending()
		h.PauseBy = netsim.PauseNone
		h.Rate = w
		if wasPaused {
			st.noteAccept(now, key)
		}
		return
	}
	h.PauseBy = st.me
	f.pauseBy = st.me
}

// onReverse is Algorithm 3, run when a switch sees an acknowledgment on
// the reverse path: it commits the path-wide accept/pause decision into
// the link state and applies Suppressed Probing.
//
//pdq:hotpath
func (l *SwitchLogic) onReverse(st *linkState, pkt *netsim.Packet, h *netsim.SchedHeader) {
	now := st.link.OwnerNow()
	st.maybeUpdateC(now)
	key := keyOf(pkt)

	if h.PauseBy != netsim.PauseNone && h.PauseBy != st.me {
		st.remove(key)
	}
	if h.PauseBy != netsim.PauseNone {
		h.Rate = 0 // flow is paused somewhere on the path
	}
	if i := st.find(key); i >= 0 {
		f := st.flows[i]
		f.pauseBy = h.PauseBy
		f.rate = h.Rate
		f.seen = now
		if h.RTT > 0 {
			f.rtt = h.RTT
		}
		if l.cfg.SuppressedProbing {
			// A paused flow at list index i can start only after the
			// flows ahead of it finish; probe every X·index RTTs
			// (§3.3.2).
			if ip := l.cfg.X * float64(i+1); ip > h.InterProbe {
				h.InterProbe = ip
			}
		}
	}
}
