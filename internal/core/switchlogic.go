package core

import (
	"pdq/internal/carve"
	"pdq/internal/netsim"
)

// SwitchLogic implements the PDQ flow controller (Algorithms 1 and 3) and
// rate controller (§3.3.3) for every forwarding element of a network. One
// instance is shared by all switches (and relaying hosts, in
// server-centric topologies); per-link state is keyed by the egress link.
type SwitchLogic struct {
	cfg *Config
	// states is indexed by the dense link ID — a flat table instead of a
	// map, keeping the per-packet lookup on the hot path pointer-chase- and
	// hash-free.
	states  []*linkState
	links   *carve.Chunks[linkState] // what states are carved from
	entries                          // every link's flowInfos

	// check, when set, is called with the link's state after every packet
	// Process handles; tests use it to assert the list's invariants.
	check func(*linkState)
}

// NewSwitchLogic returns switch logic for one experiment covering nLinks
// directed links, carving its link states and flow entries from a, the
// network's arena (nil: on its own). Clocks come from the links themselves
// (Link.Now), so the logic needs no clock of its own.
func NewSwitchLogic(cfg *Config, a *carve.Arena, nLinks int) *SwitchLogic {
	return &SwitchLogic{cfg: cfg, states: make([]*linkState, nLinks), links: carve.Of[linkState](a),
		entries: entries{chunks: carve.Of[flowInfo](a)}}
}

// state returns the PDQ state of a directed link, creating it on first
// use. The table is sized at Install; GrowTo is the fallback for
// hand-built setups that add links after construction.
func (l *SwitchLogic) state(link *netsim.Link) *linkState {
	if link.ID >= len(l.states) {
		l.states = netsim.GrowTo(l.states, link.ID)
	}
	st := l.states[link.ID]
	if st == nil {
		st = l.links.New()
		*st = linkState{cfg: l.cfg, pool: &l.entries, me: link.From.ID(), link: link, maxList: maxList, c: link.Rate}
		st.flows = st.inline[:0]
		l.states[link.ID] = st
	}
	return st
}

// ResetLinkState implements the fault layer's SoftStateResetter: a switch
// crash discards the link's entire PDQ state — flow list, rate controller,
// dampening history and the RCP fallback estimate. Nothing else is needed:
// the state is soft (paper §3.3.1), so the next forward packet re-admits
// its flow into a fresh linkState and the switch converges back from the
// traffic itself. The old state's entries go to the spare list; the state
// itself stays in its chunk, unused.
func (l *SwitchLogic) ResetLinkState(link *netsim.Link) {
	if link.ID < len(l.states) {
		if st := l.states[link.ID]; st != nil {
			for _, f := range st.flows {
				l.put(f)
			}
			l.states[link.ID] = nil
		}
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
func (l *SwitchLogic) Process(at netsim.Node, pkt *netsim.Packet, ingress, egress *netsim.Link) bool {
	hdr, ok := pkt.Hdr.(*netsim.SchedHeader)
	if !ok {
		return true
	}
	var st *linkState
	switch {
	case pkt.Kind == netsim.TERM:
		st = l.state(egress)
		st.remove(keyOf(pkt))
	case pkt.Kind.Forward():
		st = l.state(egress)
		l.onForward(st, pkt, hdr)
	case ingress != nil && ingress.Peer != nil:
		st = l.state(ingress.Peer)
		l.onReverse(st, pkt, hdr)
	default:
		return true
	}
	if l.check != nil {
		l.check(st)
	}
	return true
}

// onForward is Algorithm 1, run when a switch receives a SYN, DATA or
// PROBE packet.
func (l *SwitchLogic) onForward(st *linkState, pkt *netsim.Packet, h *netsim.SchedHeader) {
	now := st.link.Now()
	st.maybeUpdateC(now)
	key := keyOf(pkt)

	// Paused by another switch: forget the flow so its bandwidth can be
	// granted elsewhere; do not touch the header.
	if h.PauseBy != netsim.PauseNone && h.PauseBy != st.me {
		st.remove(key)
		return
	}

	crit := Criticality{Deadline: internalDeadline(h.Deadline), TTrans: h.TTrans, Key: key}
	i := st.find(key)
	if i < 0 {
		i = st.admit(now, key, crit)
		if i < 0 {
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
	f := st.flows[i]
	f.deadline = crit.Deadline
	f.ttrans = h.TTrans
	f.demand = h.Rate
	f.seen = now
	idx := st.reposition(i)

	w := st.availbw(idx)
	if h.Rate < w {
		w = h.Rate
	}
	if w < st.minGrant() {
		w = 0 // a sliver is a pause, not a rate (minGrantFrac)
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
func (l *SwitchLogic) onReverse(st *linkState, pkt *netsim.Packet, h *netsim.SchedHeader) {
	now := st.link.Now()
	st.maybeUpdateC(now)
	key := keyOf(pkt)

	i := st.find(key)
	if i >= 0 && h.PauseBy != netsim.PauseNone && h.PauseBy != st.me {
		st.drop(i)
		i = -1
	}
	if h.PauseBy != netsim.PauseNone {
		h.Rate = 0 // flow is paused somewhere on the path
	}
	if i >= 0 {
		f := st.flows[i]
		f.pauseBy = h.PauseBy
		st.setRate(f, h.Rate)
		f.seen = now
		if h.RTT > 0 {
			st.setRTT(f, h.RTT)
		}
		if l.cfg.SuppressedProbing {
			// A paused flow at list index i can start only after the
			// flows ahead of it finish; probe every X·index RTTs
			// (§3.3.2).
			if ip := probeX * float64(i+1); ip > h.InterProbe {
				h.InterProbe = ip
			}
		}
	}
}
