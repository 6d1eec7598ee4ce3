package core

import (
	"pdq/internal/carve"
	"pdq/internal/netsim"
	"pdq/internal/protocol"
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
// state, and the embedded RCP fallback controller (§3.3.1–§3.3.3). Link
// states are carved from their SwitchLogic's chunks and never move, so
// the list can start on a backing array inside the state itself.
type linkState struct {
	cfg     *Config
	pool    *entries      // the SwitchLogic's flowInfo carver and spare list
	me      netsim.NodeID // owning switch/relay-host ID
	link    *netsim.Link
	maxList int // M (the maxList constant; in-package tests lower it)

	flows  []*flowInfo  // sorted most-critical first
	inline [4]*flowInfo // flows' first backing: most lists stay this short
	bound  int          // capacity at the last admit; the list only shrinks until the next

	// Running sums over the list, kept by admit, unlink, expireStale,
	// setRate and setRTT: κ, the number of sending flows (R_i > 0), and
	// ΣRTT_i. Both are integers, so they equal a fresh walk exactly.
	kappa  int
	rttSum sim.Time

	// Rate controller (§3.3.3).
	c           int64 // C: aggregate rate available to PDQ flows
	lastCUpdate sim.Time

	// Dampening (§3.3.2).
	lastAccept    sim.Time
	lastAcceptKey flowKey
	everAccepted  bool

	// RCP fallback for flows outside the bounded list (§3.3.1): count of
	// distinct fallback flows in the current and previous controller
	// periods, giving an exact-ish N like the paper's optimized RCP. The
	// set is made on the link's first fallback; most links never need it.
	rcpSeen  map[flowKey]bool
	rcpPrevN int
}

// entries is where a SwitchLogic's flowInfos come from. Flows come and go
// at the rate packets of new flows arrive, so an entry that leaves a list
// (TERM, eviction, stale expiry, a crash) goes to one spare list shared by
// every link, and the next admission anywhere reuses it.
type entries struct {
	chunks *carve.Chunks[flowInfo]
	spare  []*flowInfo
}

// get returns an entry for admit to overwrite.
func (e *entries) get() *flowInfo {
	if n := len(e.spare); n > 0 {
		f := e.spare[n-1]
		e.spare = e.spare[:n-1]
		return f
	}
	return e.chunks.New()
}

// put takes back an entry that left its list.
func (e *entries) put(f *flowInfo) { e.spare = append(e.spare, f) }

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

// unlink takes the entry at index i out of the list and the running sums,
// and returns it.
func (st *linkState) unlink(i int) *flowInfo {
	f := st.flows[i]
	st.flows = append(st.flows[:i], st.flows[i+1:]...)
	st.forget(f)
	return f
}

// forget takes a leaving entry's share out of the running sums.
func (st *linkState) forget(f *flowInfo) {
	if f.rate > 0 {
		st.kappa--
	}
	st.rttSum -= f.rtt
}

// drop deletes the entry at index i. It goes to the spare list, so callers
// must not hold on to it.
func (st *linkState) drop(i int) { st.pool.put(st.unlink(i)) }

// remove deletes key from the list if present.
func (st *linkState) remove(key flowKey) {
	if i := st.find(key); i >= 0 {
		st.drop(i)
	}
}

// setRate sets a listed flow's committed rate R_i, keeping κ.
func (st *linkState) setRate(f *flowInfo, r int64) {
	if f.rate > 0 {
		st.kappa--
	}
	if r > 0 {
		st.kappa++
	}
	f.rate = r
}

// setRTT sets a listed flow's RTT estimate, keeping ΣRTT.
func (st *linkState) setRTT(f *flowInfo, rtt sim.Time) {
	st.rttSum += rtt - f.rtt
	f.rtt = rtt
}

// capacity is the list bound: 2κ flows (§3.3.1), at least 2 so a first
// flow can always be admitted, and at most M.
func (st *linkState) capacity() int {
	c := 2 * st.kappa
	if c < 2 {
		c = 2
	}
	if c > st.maxList {
		c = st.maxList
	}
	return c
}

// expireStale drops flows whose state was never refreshed (lost TERM).
func (st *linkState) expireStale(now sim.Time) {
	cutoff := now - protocol.StaleTimeout
	if cutoff <= 0 {
		return
	}
	kept := st.flows[:0]
	for _, f := range st.flows {
		if f.seen >= cutoff {
			kept = append(kept, f)
		} else {
			st.forget(f)
			st.pool.put(f)
		}
	}
	st.flows = kept
}

// insert places f in criticality order, after every entry it is not more
// critical than, and returns its index.
func (st *linkState) insert(f *flowInfo) int {
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
	return pos
}

// reposition restores sorted order after the criticality of the entry at
// index i changed, and returns its new index. The entry moves by neighbour
// swaps: left past every entry it is now more critical than, or else right
// past every entry it is not more critical than — the index insert would
// give it in the list without it.
func (st *linkState) reposition(i int) int {
	f := st.flows[i]
	fc := f.crit()
	for i > 0 && st.less(fc, st.flows[i-1].crit()) {
		st.flows[i] = st.flows[i-1]
		i--
	}
	for i+1 < len(st.flows) && !st.less(fc, st.flows[i+1].crit()) {
		st.flows[i] = st.flows[i+1]
		i++
	}
	st.flows[i] = f
	return i
}

// admit tries to add a new flow with the given criticality, enforcing the
// 2κ bound by evicting the least critical entries, and returns its index.
// It returns -1 if the flow is less critical than a full list's tail (the
// RCP-fallback case).
func (st *linkState) admit(now sim.Time, key flowKey, c Criticality) int {
	cap := st.capacity()
	if len(st.flows) >= cap {
		tail := st.flows[len(st.flows)-1]
		if !st.less(c, tail.crit()) {
			return -1
		}
	}
	f := st.pool.get()
	*f = flowInfo{
		key:      key,
		rate:     0,
		pauseBy:  st.me, // not sending until acceptance commits (§3.3.2)
		deadline: c.Deadline,
		ttrans:   c.TTrans,
		rtt:      protocol.InitRTT,
		seen:     now,
	}
	st.rttSum += f.rtt
	pos := st.insert(f)
	for len(st.flows) > cap {
		st.drop(len(st.flows) - 1)
	}
	st.bound = cap
	if pos >= cap {
		return -1 // evicted immediately: list was full of more critical flows
	}
	return pos
}

// avgRTT averages the RTT estimates of listed flows (the initial RTT when
// empty); it paces the rate controller (§3.3.3).
func (st *linkState) avgRTT() sim.Time {
	if len(st.flows) == 0 {
		return protocol.InitRTT
	}
	return st.rttSum / sim.Time(len(st.flows))
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
func (st *linkState) availbw(j int) int64 {
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
func (st *linkState) minGrant() int64 {
	return int64(minGrantFrac * float64(st.link.Rate))
}

// rcpRate is the fallback fair-share rate for flows outside the list
// (§3.3.1): the capacity left after waterfilling every listed flow's
// demand, divided by the number of fallback flows. Slivers below the
// minimum grant become a pause.
func (st *linkState) rcpRate(key flowKey) int64 {
	if st.rcpSeen == nil {
		st.rcpSeen = map[flowKey]bool{}
	}
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
	return st.everAccepted && key != st.lastAcceptKey && now-st.lastAccept < dampening
}

// noteAccept records that a previously non-sending flow was just accepted.
func (st *linkState) noteAccept(now sim.Time, key flowKey) {
	st.lastAccept = now
	st.lastAcceptKey = key
	st.everAccepted = true
}
