package core

import (
	"pdq/internal/netsim"
	"pdq/internal/sim"
)

// flowInfo is the per-flow state a switch remembers on a link:
// <R_i, P_i, D_i, T_i, RTT_i> of §3.3.1.
type flowInfo struct {
	key      flowKey
	rate     int64         // R_i: committed sending rate
	demand   int64         // R_H as it arrived: what the flow could use here
	pauseBy  netsim.NodeID // P_i: pausing switch, PauseNone if sending
	deadline sim.Time      // D_i (internal encoding, noDeadline if none)
	ttrans   sim.Time      // T_i
	rtt      sim.Time      // RTT_i (learned from reverse path)
	seen     sim.Time      // last state refresh, for stale eviction
}

func (f *flowInfo) crit() Criticality {
	return Criticality{Deadline: f.deadline, TTrans: f.ttrans, Key: f.key}
}

func (f *flowInfo) sending() bool { return f.pauseBy == netsim.PauseNone }

// linkState is the PDQ switch state for one directed link: the bounded
// most-critical flow list, the rate controller variable C, dampening
// state, and the embedded RCP fallback controller (§3.3.1–§3.3.3).
type linkState struct {
	cfg  *Config
	me   netsim.NodeID // owning switch/relay-host ID
	link *netsim.Link

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

func newLinkState(cfg *Config, me netsim.NodeID, link *netsim.Link) *linkState {
	rate := cfg.RatePDQ
	if rate == 0 {
		rate = link.Rate
	}
	return &linkState{cfg: cfg, me: me, link: link, c: rate, rcpSeen: map[flowKey]bool{}}
}

// less applies the configured comparator (Config.Less, default
// Criticality.Less).
func (st *linkState) less(a, b Criticality) bool {
	if st.cfg.Less != nil {
		return st.cfg.Less(a, b)
	}
	return a.Less(b)
}

// find returns the index of key in the flow list, or -1.
func (st *linkState) find(key flowKey) int {
	for i, f := range st.flows {
		if f.key == key {
			return i
		}
	}
	return -1
}

// unlink takes the entry at index i out of the list and returns it.
func (st *linkState) unlink(i int) *flowInfo {
	f := st.flows[i]
	st.flows = append(st.flows[:i], st.flows[i+1:]...)
	return f
}

// remove deletes key from the list if present. The entry goes to the
// free list, so callers must not hold on to it.
func (st *linkState) remove(key flowKey) {
	if i := st.find(key); i >= 0 {
		st.free = append(st.free, st.unlink(i))
	}
}

// kappa is κ: the number of sending flows (R_i > 0) in the list.
func (st *linkState) kappa() int {
	n := 0
	for _, f := range st.flows {
		if f.rate > 0 {
			n++
		}
	}
	return n
}

// capacity is the list bound: 2κ flows (§3.3.1), at least 2 so a first
// flow can always be admitted, and at most MaxList (M).
func (st *linkState) capacity() int {
	c := 2 * st.kappa()
	if c < 2 {
		c = 2
	}
	if c > st.cfg.MaxList {
		c = st.cfg.MaxList
	}
	return c
}

// expireStale drops flows whose state was never refreshed (lost TERM).
func (st *linkState) expireStale(now sim.Time) {
	cutoff := now - st.cfg.StaleTimeout
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
func (st *linkState) insert(f *flowInfo) {
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
func (st *linkState) reposition(f *flowInfo) int {
	st.unlink(st.find(f.key))
	st.insert(f)
	return st.find(f.key)
}

// admit tries to add a new flow with the given criticality, enforcing the
// 2κ bound by evicting the least critical entries. Returns nil if the flow
// is less critical than a full list's tail (the RCP-fallback case).
func (st *linkState) admit(now sim.Time, key flowKey, c Criticality) *flowInfo {
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
		rtt:      st.cfg.InitRTT,
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

// avgRTT averages the RTT estimates of listed flows (InitRTT when empty);
// it paces the rate controller (§3.3.3).
func (st *linkState) avgRTT() sim.Time {
	if len(st.flows) == 0 {
		return st.cfg.InitRTT
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
func (st *linkState) maybeUpdateC(now sim.Time) {
	rtt := st.avgRTT()
	if now-st.lastCUpdate < 2*rtt {
		return
	}
	st.lastCUpdate = now
	rPDQ := st.cfg.RatePDQ
	if rPDQ == 0 {
		rPDQ = st.link.Rate
	}
	qBits := int64(st.link.QueueWaiting()) * 8
	drain := qBits * int64(sim.Second) / int64(2*rtt)
	c := rPDQ - drain
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
func (st *linkState) availbw(j int) int64 {
	x := 0.0
	avail := st.c
	for i := 0; i < j && i < len(st.flows); i++ {
		f := st.flows[i]
		if st.cfg.EarlyStart && f.rtt > 0 && float64(f.ttrans)/float64(f.rtt) < st.cfg.K && x < st.cfg.K {
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

// minGrant is the smallest rate worth granting (see Config.MinGrantFrac).
func (st *linkState) minGrant() int64 {
	return int64(st.cfg.MinGrantFrac * float64(st.link.Rate))
}

// rcpRate is the fallback fair-share rate for flows outside the list
// (§3.3.1): the capacity left after waterfilling every listed flow's
// demand, divided by the number of fallback flows. Slivers below the
// minimum grant become a pause.
func (st *linkState) rcpRate(key flowKey) int64 {
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
func (st *linkState) dampened(now sim.Time, key flowKey) bool {
	return st.everAccepted && key != st.lastAcceptKey && now-st.lastAccept < st.cfg.Dampening
}

// noteAccept records that a previously non-sending flow was just accepted.
func (st *linkState) noteAccept(now sim.Time, key flowKey) {
	st.lastAccept = now
	st.lastAcceptKey = key
	st.everAccepted = true
}
