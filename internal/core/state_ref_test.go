package core

import (
	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/sim"
)

// The reference PDQ switch: linkState and SwitchLogic as they were before
// link state was carved and κ and ΣRTT became running sums, frozen
// verbatim apart from the names. FuzzSwitchLogicMatchesReference
// (switchlogic_diff_test.go) drives it beside the production logic and
// requires every header, list and controller value to match.

// refLinkState is the PDQ switch state for one directed link: the bounded
// most-critical flow list, the rate controller variable C, dampening
// state, and the embedded RCP fallback controller (§3.3.1–§3.3.3).
type refLinkState struct {
	cfg     *Config
	me      netsim.NodeID // owning switch/relay-host ID
	link    *netsim.Link
	maxList int // M (the maxList constant; in-package tests lower it)

	flows []*flowInfo // sorted most-critical first
	// free holds entries that left the list (TERM, eviction, stale
	// expiry), for admit to reuse: flows come and go at the rate packets
	// of new flows arrive, so the list would otherwise cost one heap
	// object per admission.
	free []*flowInfo

	// Rate controller (§3.3.3).
	c           int64 // C: aggregate rate available to PDQ flows
	lastCUpdate sim.Time

	// Dampening (§3.3.2).
	lastAccept    sim.Time
	lastAcceptKey flowKey
	everAccepted  bool

	// RCP fallback for flows outside the bounded list (§3.3.1): count of
	// distinct fallback flows in the current and previous controller
	// periods, giving an exact-ish N like the paper's optimized RCP.
	rcpSeen  map[flowKey]bool
	rcpPrevN int
}

func newRefLinkState(cfg *Config, me netsim.NodeID, link *netsim.Link) *refLinkState {
	return &refLinkState{cfg: cfg, me: me, link: link, maxList: maxList, c: link.Rate, rcpSeen: map[flowKey]bool{}}
}

// less applies the configured comparator (Config.Less, default
// Criticality.Less).
func (st *refLinkState) less(a, b Criticality) bool {
	if st.cfg.Less != nil {
		return st.cfg.Less(a, b)
	}
	return a.Less(b)
}

// find returns the index of key in the flow list, or -1.
func (st *refLinkState) find(key flowKey) int {
	for i, f := range st.flows {
		if f.key == key {
			return i
		}
	}
	return -1
}

// unlink takes the entry at index i out of the list and returns it.
func (st *refLinkState) unlink(i int) *flowInfo {
	f := st.flows[i]
	st.flows = append(st.flows[:i], st.flows[i+1:]...)
	return f
}

// remove deletes key from the list if present. The entry goes to the
// free list, so callers must not hold on to it.
func (st *refLinkState) remove(key flowKey) {
	if i := st.find(key); i >= 0 {
		st.free = append(st.free, st.unlink(i))
	}
}

// kappa is κ: the number of sending flows (R_i > 0) in the list.
func (st *refLinkState) kappa() int {
	n := 0
	for _, f := range st.flows {
		if f.rate > 0 {
			n++
		}
	}
	return n
}

// capacity is the list bound: 2κ flows (§3.3.1), at least 2 so a first
// flow can always be admitted, and at most M.
func (st *refLinkState) capacity() int {
	c := 2 * st.kappa()
	if c < 2 {
		c = 2
	}
	if c > st.maxList {
		c = st.maxList
	}
	return c
}

// expireStale drops flows whose state was never refreshed (lost TERM).
func (st *refLinkState) expireStale(now sim.Time) {
	cutoff := now - protocol.StaleTimeout
	if cutoff <= 0 {
		return
	}
	kept := st.flows[:0]
	for _, f := range st.flows {
		if f.seen >= cutoff {
			kept = append(kept, f)
		} else {
			st.free = append(st.free, f)
		}
	}
	st.flows = kept
}

// insert places f in criticality order.
func (st *refLinkState) insert(f *flowInfo) {
	pos := len(st.flows)
	fc := f.crit()
	for i, g := range st.flows {
		if st.less(fc, g.crit()) {
			pos = i
			break
		}
	}
	st.flows = append(st.flows, nil)
	copy(st.flows[pos+1:], st.flows[pos:])
	st.flows[pos] = f
}

// reposition restores sorted order after f's criticality changed, and
// returns f's new index.
func (st *refLinkState) reposition(f *flowInfo) int {
	st.unlink(st.find(f.key))
	st.insert(f)
	return st.find(f.key)
}

// admit tries to add a new flow with the given criticality, enforcing the
// 2κ bound by evicting the least critical entries. Returns nil if the flow
// is less critical than a full list's tail (the RCP-fallback case).
func (st *refLinkState) admit(now sim.Time, key flowKey, c Criticality) *flowInfo {
	cap := st.capacity()
	if len(st.flows) >= cap {
		tail := st.flows[len(st.flows)-1]
		if !st.less(c, tail.crit()) {
			return nil
		}
	}
	var f *flowInfo
	if n := len(st.free); n > 0 {
		f = st.free[n-1]
		st.free = st.free[:n-1]
	} else {
		f = new(flowInfo)
	}
	*f = flowInfo{
		key:      key,
		rate:     0,
		pauseBy:  st.me, // not sending until acceptance commits (§3.3.2)
		deadline: c.Deadline,
		ttrans:   c.TTrans,
		rtt:      protocol.InitRTT,
		seen:     now,
	}
	st.insert(f)
	for len(st.flows) > cap {
		st.free = append(st.free, st.unlink(len(st.flows)-1))
	}
	if st.find(key) < 0 {
		return nil // evicted immediately: list was full of more critical flows
	}
	return f
}

// avgRTT averages the RTT estimates of listed flows (the initial RTT when
// empty); it paces the rate controller (§3.3.3).
func (st *refLinkState) avgRTT() sim.Time {
	if len(st.flows) == 0 {
		return protocol.InitRTT
	}
	var sum sim.Time
	for _, f := range st.flows {
		sum += f.rtt
	}
	return sum / sim.Time(len(st.flows))
}

// maybeUpdateC runs the §3.3.3 rate controller: every 2 RTTs,
// C = max(0, r_PDQ − q/(2·RTT)), draining the queue built up by Early
// Start and absorbing transient inconsistency.
func (st *refLinkState) maybeUpdateC(now sim.Time) {
	rtt := st.avgRTT()
	if now-st.lastCUpdate < 2*rtt {
		return
	}
	st.lastCUpdate = now
	qBits := int64(st.link.QueueWaiting()) * 8
	drain := qBits * int64(sim.Second) / int64(2*rtt)
	c := st.link.Rate - drain
	if c < 0 {
		c = 0
	}
	st.c = c
	// Roll the RCP fallback flow count.
	st.rcpPrevN = len(st.rcpSeen)
	clear(st.rcpSeen)
	st.expireStale(now)
}

// availbw is Algorithm 2: the bandwidth available to the flow at list
// index j. It waterfills the controller capacity C over all more critical
// flows in criticality order, charging each its *demand* (the R_H it
// advertised, i.e. min of sender NIC rate and upstream caps), exactly as
// the paper's centralized algorithm does (§3: rate_i = min(R^max, B_e)).
// Charging demands rather than committed rates keeps the allocation
// bimodal: transient slivers of capacity between rate-controller updates
// never leak to less critical flows (see DESIGN.md §5).
//
// With Early Start enabled, up to K RTTs worth of nearly-completed flows
// are excluded from the accounting so their successors can start early.
func (st *refLinkState) availbw(j int) int64 {
	x := 0.0
	avail := st.c
	for i := 0; i < j && i < len(st.flows); i++ {
		f := st.flows[i]
		if st.cfg.EarlyStart && f.rtt > 0 && float64(f.ttrans)/float64(f.rtt) < earlyStartK && x < earlyStartK {
			x += float64(f.ttrans) / float64(f.rtt)
			continue
		}
		take := f.demand
		if take < f.rate {
			take = f.rate
		}
		if take > avail {
			take = avail
		}
		avail -= take
		if avail <= 0 {
			return 0
		}
	}
	return avail
}

// minGrant is the smallest rate worth granting (see minGrantFrac).
func (st *refLinkState) minGrant() int64 {
	return int64(minGrantFrac * float64(st.link.Rate))
}

// rcpRate is the fallback fair-share rate for flows outside the list
// (§3.3.1): the capacity left after waterfilling every listed flow's
// demand, divided by the number of fallback flows. Slivers below the
// minimum grant become a pause.
func (st *refLinkState) rcpRate(key flowKey) int64 {
	st.rcpSeen[key] = true
	n := len(st.rcpSeen)
	if st.rcpPrevN > n {
		n = st.rcpPrevN
	}
	share := st.availbw(len(st.flows)) / int64(n)
	if share < st.minGrant() {
		return 0
	}
	return share
}

// dampened reports whether accepting key now would violate dampening:
// another non-sending flow was accepted within the dampening window
// (§3.3.2).
func (st *refLinkState) dampened(now sim.Time, key flowKey) bool {
	return st.everAccepted && key != st.lastAcceptKey && now-st.lastAccept < dampening
}

// noteAccept records that a previously non-sending flow was just accepted.
func (st *refLinkState) noteAccept(now sim.Time, key flowKey) {
	st.lastAccept = now
	st.lastAcceptKey = key
	st.everAccepted = true
}

// refSwitchLogic implements the PDQ flow controller (Algorithms 1 and 3) and
// rate controller (§3.3.3) for every forwarding element of a network. One
// instance is shared by all switches (and relaying hosts, in
// server-centric topologies); per-link state is keyed by the egress link.
type refSwitchLogic struct {
	cfg *Config
	// states is indexed by the dense link ID — a flat table instead of a
	// map, keeping the per-packet lookup on the hot path pointer-chase- and
	// hash-free.
	states []*refLinkState
}

// newRefSwitchLogic returns switch logic for one experiment covering nLinks
// directed links. Clocks come from the links themselves (Link.Now), so the
// logic needs no clock of its own.
func newRefSwitchLogic(cfg *Config, nLinks int) *refSwitchLogic {
	return &refSwitchLogic{cfg: cfg, states: make([]*refLinkState, nLinks)}
}

// state returns the PDQ state of a directed link, creating it on first
// use. The table is sized at Install; GrowTo is the fallback for
// hand-built setups that add links after construction.
func (l *refSwitchLogic) state(link *netsim.Link) *refLinkState {
	if link.ID >= len(l.states) {
		l.states = netsim.GrowTo(l.states, link.ID)
	}
	st := l.states[link.ID]
	if st == nil {
		st = newRefLinkState(l.cfg, link.From.ID(), link)
		l.states[link.ID] = st
	}
	return st
}

// ResetLinkState implements the fault layer's SoftStateResetter: a switch
// crash discards the link's entire PDQ state — flow list, rate controller,
// dampening history and the RCP fallback estimate. Nothing else is needed:
// the state is soft (paper §3.3.1), so the next forward packet re-admits
// its flow into a fresh refLinkState and the switch converges back from the
// traffic itself.
func (l *refSwitchLogic) ResetLinkState(link *netsim.Link) {
	if link.ID < len(l.states) {
		l.states[link.ID] = nil
	}
}

// Process implements netsim.refSwitchLogic. Forward packets (SYN, DATA,
// PROBE, TERM) are processed against the egress link's state (Algorithm
// 1); reverse packets (acknowledgments) against the forward-direction
// link, which is the peer of the ACK's ingress (Algorithm 3). Packets
// without a PDQ header pass through untouched.
func (l *refSwitchLogic) Process(at netsim.Node, pkt *netsim.Packet, ingress, egress *netsim.Link) bool {
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
func (l *refSwitchLogic) onForward(st *refLinkState, pkt *netsim.Packet, h *netsim.SchedHeader) {
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
func (l *refSwitchLogic) onReverse(st *refLinkState, pkt *netsim.Packet, h *netsim.SchedHeader) {
	now := st.link.Now()
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
			if ip := probeX * float64(i+1); ip > h.InterProbe {
				h.InterProbe = ip
			}
		}
	}
}
