package flowsim

import (
	"math"
	"math/bits"

	"pdq/internal/carve"
	"pdq/internal/netsim"
	"pdq/internal/sim"
)

// ledger is what PDQ and D3 keep between calls so that a call recomputes
// only the flows a change reaches. Both serve flows one at a time in a kept
// service order, and a flow's grant reads only the running state of its
// links: the residual, and for D3 also the count of flows still to serve.
// So each link lists its flows in service order, and each flow keeps, per
// hop, the residual it saw there on the last call and which flow came
// before it. A link's state at a position is its capacity less the grants
// of the flows before it, so it is the last call's, bit for bit, up to the
// first position where the link's sequence changed this call: a departure,
// an arrival, an entry the order repair moved, a new capacity, or a flow
// before it whose grant came out with other bits. A call marks each link
// dirty from that position and walks the kept order once. A flow with no
// dirty hop keeps its grant. A flagged flow is recomputed from its clean
// hops' stored residuals and its dirty hops' running ones; each dirty hop
// then flags the flow after it on the link, unless the running residual
// has come back to the one that flow saw last call behind the same
// predecessors, where the link is clean again; and a grant with new bits
// turns the flow's clean links dirty just after it. A flow is flagged at
// most once, so a call visits at most the flow-hops of a full pass. A
// first call, one naming a flow twice, and one whose order had to be
// sorted anew recompute every flow from the capacities, as does every D3
// call while a flow has a deadline (DESIGN.md §4).
type ledger struct {
	ord   order
	recs  []ledFlow
	free  []int32              // indices of recs no listed flow holds
	links []ledLink            // by local index: the links registered since the last Rewind, in first-sight order
	hopsC carve.Chunks[ledHop] // recs' hops
	entsC carve.Chunks[ledEnt] // links' lists
	used  []*netsim.Link       // by local index: the link
	local []int32              // by Link.ID: the link's local index, valid while used names the link there
	work  []int32              // the links stamped this call
	flags []uint64             // by rank: the flow is recomputed this call
	rank  []int32              // by rec: the flow's index in the service order this call
	hops  int                  // Σ hops of the listed flows: what a full pass visits
	epoch uint32               // stamps ledLink.stamp for the current call

	rebuild bool // list every flow anew in service order
	full    bool // this call's walk recomputes every flow from the capacities
	foreign bool // Rates may have been set by others since the last call

	d3    bool  // keys are arrival times; a link's count is part of its state
	edf   bool  // PDQ's perfect mode: the key's major part is the absolute deadline
	dated int   // listed flows with a finite deadline (D3)
	cap   capFn // this call's capacity function
	stats ledgerStats
}

type capFn = func(*netsim.Link) float64

// ledgerStats counts what a ledger's calls did: how many walked every
// flow from the capacities, and the flow-hops recomputed against those a
// full walk visits.
type ledgerStats struct {
	calls, full   int
	hops, visited int
}

// ledFlow is one listed flow: its deadline, NIC floor and last grant, and
// per hop, in path order, what it saw.
type ledFlow struct {
	f     *FlowState
	dl    sim.Time // absolute deadline (D3's reservation)
	nic   float64
	grant float64 // PDQ: the rate; D3: the fair-share grant of pass 2
	hops  []ledHop
}

// ledHop is a flow's place on one link and the residual it saw there on
// the last call.
type ledHop struct {
	seen float64
	link int32
	pos  int32 // index in the link's list
}

// ledLink is one link: its capacity, its flows in service order, and this
// call's dirty position and running residual from it on.
type ledLink struct {
	cap     float64
	run     float64
	list    []ledEnt
	dirty   int32  // first position whose state may differ from the last call's
	settled int32  // from here on every flow has its last call's predecessor (and, under D3, position and count)
	stamp   uint32 // == ledger.epoch: dirty, settled, moved and shift are this call's
	moved   bool   // entries were removed, added or reordered this call
	shift   bool   // entries were added or reordered: the list needs sorting
}

// ledEnt is one flow on a link: the rec, which of its hops this is, and
// the rec of the flow before it there on the last call (-1: none, -2:
// newly listed).
type ledEnt struct{ rec, hop, prev int32 }

// Rewind drops every listed flow and every link, so the next call starts
// from nothing: the arena its flows were carved from was rewound (an
// allocator kept there, carve.Keep, is rewound with it), or the next
// flows are another network's.
func (g *ledger) Rewind() {
	g.ord.ents = g.ord.ents[:0]
	for i := range g.used {
		L := &g.links[i]
		clear(L.list)
		L.list = L.list[:0]
	}
	clear(g.used)
	g.used = g.used[:0]
	for i := range g.recs {
		g.recs[i].f = nil
	}
	g.recs, g.free, g.hops, g.dated = g.recs[:0], g.free[:0], 0, 0
}

// sync brings the ledger's flows to flows: it syncs the order, unlists the
// flows that left and lists the ones that arrived at the end of their
// links' lists. When c says capacities or paths may have changed since the
// last call, it also relists every flow whose Path is new and marks every
// link whose capacity moved. A listed flow's major key is set as it is
// listed; the caller fills the minor keys before settle.
func (g *ledger) sync(flows []*FlowState, cap capFn, c change) {
	g.cap = cap
	g.epoch++
	if g.epoch == 0 { // wrapped: stamps from 2³² calls ago could collide
		for i := range g.links {
			g.links[i].stamp = 0
		}
		g.epoch = 1
	}
	g.work, g.full, g.foreign = g.work[:0], false, c == anyChange
	kept, dup := g.ord.sync(flows)
	g.rebuild = dup || g.hops == 0
	for _, r := range g.ord.gone {
		g.unlist(r)
	}
	ents := g.ord.ents
	if c != unchanged {
		for i := range ents[:kept] {
			e := &ents[i]
			r := &g.recs[e.rec]
			if !g.on(r, e.f.Path) {
				g.unlist(e.rec)
				g.list(e)
			}
		}
		for i, l := range g.used {
			if cap(l) != g.links[i].cap {
				g.recap(int32(i))
			}
		}
	}
	g.fit(ents[kept:])
	for i := range ents[kept:] {
		e := &ents[kept+i]
		e.rec = g.take()
		g.list(e)
	}
	// Freed only now: a rec taken again in the call it was freed in would
	// pass for the flow before a departed one's successor.
	g.free = append(g.free, g.ord.gone...)
}

// recap reads link i's capacity anew; every position of its list is dirty.
func (g *ledger) recap(i int32) {
	L := &g.links[i]
	L.cap = g.cap(g.used[i])
	g.stamp(i)
	L.dirty = 0
}

// fit grows the recs and the links, once, to what listing the arrivals
// needs: the first call of a run lists every flow, and doubling up to
// that would allocate twice what it needs. It registers the arrivals'
// links, so the links hold those in use rather than every link ID.
func (g *ledger) fit(arrivals []ordEnt) {
	if n := len(g.recs) - len(g.free) + len(arrivals); n > cap(g.recs) {
		g.recs = append(make([]ledFlow, 0, n), g.recs...)
	}
	maxID := len(g.local) - 1
	for _, e := range arrivals {
		for _, l := range e.f.Path {
			maxID = max(maxID, l.ID)
		}
	}
	if maxID >= len(g.local) {
		g.local = append(g.local, make([]int32, maxID+1-len(g.local))...)
	}
	n := len(g.used)
	for _, e := range arrivals {
		for _, l := range e.f.Path {
			g.index(l)
		}
	}
	if n := len(g.used); n > cap(g.links) {
		if len(g.links) > 0 { // a later call: grow by a quarter at least
			n = max(n, cap(g.links)+cap(g.links)/4)
		}
		g.links = append(make([]ledLink, 0, n), g.links...)
	}
	for i := n; i < len(g.used); i++ {
		g.open(i)
	}
}

// take returns the index of an unused rec, whose hops keep the storage
// an earlier flow grew.
func (g *ledger) take() int32 {
	if n := len(g.free); n > 0 {
		r := g.free[n-1]
		g.free = g.free[:n-1]
		return r
	}
	if n := len(g.recs); n < cap(g.recs) {
		g.recs = g.recs[:n+1]
	} else {
		g.recs = append(g.recs, ledFlow{})
	}
	return int32(len(g.recs) - 1)
}

// list copies e's flow into its rec and appends it to its links' lists.
func (g *ledger) list(e *ordEnt) {
	f := e.f
	switch {
	case g.d3:
		e.major = f.Start
	case g.edf:
		e.major = f.AbsDeadline()
	default:
		e.major = 0
	}
	r := &g.recs[e.rec]
	r.f, r.dl, r.nic, r.grant = f, f.AbsDeadline(), nicFloor(f.Path), 0
	if r.dl != sim.MaxTime {
		g.dated++
	}
	if cap(r.hops) < len(f.Path) {
		r.hops = g.hopsC.Take(len(f.Path))
	}
	r.hops = r.hops[:0]
	for k, l := range f.Path {
		i := g.link(l)
		if !g.rebuild {
			g.stamp(i)
			L := &g.links[i]
			L.moved, L.shift = true, true
			g.push(L, ledEnt{e.rec, int32(k), -2})
		}
		r.hops = append(r.hops, ledHop{link: i, pos: -1})
	}
	g.hops += len(f.Path)
}

// unlist takes rec r's flow off its links.
func (g *ledger) unlist(r int32) {
	rec := &g.recs[r]
	if rec.dl != sim.MaxTime {
		g.dated--
	}
	if !g.rebuild {
		for _, h := range rec.hops {
			g.stamp(h.link)
			L := &g.links[h.link]
			L.list[h.pos].rec = -1
			L.moved = true
		}
	}
	g.hops -= len(rec.hops)
	rec.f = nil
}

// on reports whether path is the one r's hops were copied from: the same
// links in the same order.
func (g *ledger) on(r *ledFlow, path []*netsim.Link) bool {
	if len(path) != len(r.hops) {
		return false
	}
	for k, l := range path {
		if g.used[r.hops[k].link] != l {
			return false
		}
	}
	return true
}

// index returns l's local index, registering l on first sight. Between
// rewinds a ledger serves the links of one network.
func (g *ledger) index(l *netsim.Link) int32 {
	if l.ID >= len(g.local) {
		g.local = append(g.local, make([]int32, max(l.ID+1, 2*len(g.local))-len(g.local))...)
	}
	if i := g.local[l.ID]; int(i) < len(g.used) && g.used[i] == l {
		return i
	}
	i := int32(len(g.used))
	g.local[l.ID] = i
	g.used = append(g.used, l)
	return i
}

// link returns l's local index, registering l, with its capacity, on first
// sight: a link of a new Path that fit did not see.
func (g *ledger) link(l *netsim.Link) int32 {
	n := len(g.used)
	i := g.index(l)
	if int(i) == n {
		g.open(n)
	}
	return i
}

// open readies the entry of link i, the next to register: its capacity
// read, its list empty, keeping the room an earlier link there grew.
func (g *ledger) open(i int) {
	if i == len(g.links) {
		g.links = append(g.links, ledLink{})
	}
	L := &g.links[i]
	*L = ledLink{cap: g.cap(g.used[i]), list: L.list[:0]}
}

// stamp opens link id for this call: clean, and settled throughout, until
// something changes that.
func (g *ledger) stamp(id int32) {
	L := &g.links[id]
	if L.stamp != g.epoch {
		n := int32(len(L.list))
		L.stamp, L.dirty, L.settled, L.moved, L.shift = g.epoch, n, 0, false, false
		g.work = append(g.work, id)
	}
}

// settle repairs the order after the caller filled this call's keys, ranks
// the flows, repairs the lists of the links whose flows came, went or
// moved, and flags the flow at each link's dirty position.
func (g *ledger) settle() {
	if !g.ord.sort() {
		g.rebuild = true
	}
	if g.rebuild {
		g.relistAll()
		return
	}
	g.ranks()
	for _, r := range g.ord.moved { // the entries the repair moved toward the front
		for _, h := range g.recs[r].hops {
			if g.outOfPlace(r, h) {
				g.stamp(h.link)
				L := &g.links[h.link]
				L.moved, L.shift = true, true
			}
		}
	}
	for _, id := range g.work {
		if g.links[id].moved {
			g.repair(id)
		}
	}
	if g.full {
		return
	}
	if n := (len(g.ord.ents) + 63) / 64; cap(g.flags) < n {
		g.flags = make([]uint64, n)
	} else {
		g.flags = g.flags[:n] // all zero: the last walk cleared each bit it took
	}
	for _, id := range g.work {
		if L := &g.links[id]; int(L.dirty) < len(L.list) {
			L.run = g.before(L, L.dirty)
			g.flag(L.list[L.dirty].rec)
		}
	}
}

// outOfPlace reports whether rec r, which the order repair moved toward
// the front, must move on hop h's link too. Entries that did not move keep
// their order among themselves, so a list is out of order only next to a
// moved one. A list that lost or gained entries this call is sorted anyway.
func (g *ledger) outOfPlace(r int32, h ledHop) bool {
	L := &g.links[h.link]
	if L.stamp == g.epoch && L.moved {
		return true
	}
	i := g.rank[r]
	return h.pos > 0 && g.rank[L.list[h.pos-1].rec] > i ||
		int(h.pos)+1 < len(L.list) && g.rank[L.list[h.pos+1].rec] < i
}

// ranks numbers the flows in service order.
func (g *ledger) ranks() {
	if n := len(g.recs); cap(g.rank) < n {
		g.rank = make([]int32, n, cap(g.recs))
	} else {
		g.rank = g.rank[:n]
	}
	for i, e := range g.ord.ents {
		g.rank[e.rec] = int32(i)
	}
}

// push appends e to L's list. A list outgrowing its room takes twice as
// much from the ledger's carver: lists keep their room from call to call
// and from run to run, and carving them spares the heap one allocation
// per link.
func (g *ledger) push(L *ledLink, e ledEnt) {
	if len(L.list) == cap(L.list) {
		L.list = append(g.entsC.Take(2*len(L.list) + 2)[:0], L.list...)
	}
	L.list = append(L.list, e)
}

// relistAll lists every flow anew in service order, so every list is
// sorted as built, and makes the call full.
func (g *ledger) relistAll() {
	for i := range g.used {
		g.links[i].dirty = 0 // counts the link's flows: a full call reads no dirty position
	}
	for _, e := range g.ord.ents {
		for _, h := range g.recs[e.rec].hops {
			g.links[h.link].dirty++
		}
	}
	for i := range g.used {
		L := &g.links[i]
		if n := int(L.dirty); cap(L.list) < n {
			L.list = g.entsC.Take(n)
		}
		L.list = L.list[:0]
	}
	for _, e := range g.ord.ents {
		r := &g.recs[e.rec]
		for k := range r.hops {
			h := &r.hops[k]
			L := &g.links[h.link]
			h.pos = int32(len(L.list))
			prev := int32(-1)
			if h.pos > 0 {
				prev = L.list[h.pos-1].rec
			}
			L.list = append(L.list, ledEnt{e.rec, int32(k), prev}) // within the room counted above
		}
	}
	g.full = true
}

// repair drops link id's departed entries, sorts the arrivals and the
// entries the order repair moved into rank order, and renumbers the hops
// from the first position that changed, which dirty drops to. settled
// becomes the position after the last flow whose predecessor changed (or,
// under D3, whose position did). Under D3 a change of length moves every
// position's count: dirty drops to 0 and nothing is settled.
func (g *ledger) repair(id int32) {
	L := &g.links[id]
	list := L.list
	first := int32(len(list))
	n, gone, came := 0, 0, 0
	for _, e := range list {
		if e.rec < 0 {
			gone++
			first = min(first, int32(n))
			continue
		}
		if e.prev == -2 { // appended this call, after every old entry
			came++
			first = min(first, int32(n))
		}
		list[n] = e
		n++
	}
	list = list[:n]
	for i := 1; L.shift && i < len(list); i++ {
		e := list[i]
		re := g.rank[e.rec]
		j := i
		for ; j > 0 && g.rank[list[j-1].rec] > re; j-- {
			list[j] = list[j-1]
		}
		if j < i {
			list[j] = e
			first = min(first, int32(j))
		}
	}
	last := first - 1
	for k := first; int(k) < len(list); k++ {
		e := &list[k]
		h := &g.recs[e.rec].hops[e.hop]
		prev := int32(-1)
		if k > 0 {
			prev = list[k-1].rec
		}
		if e.prev != prev || (g.d3 && h.pos != k) {
			last = k
		}
		h.pos, e.prev = k, prev
	}
	L.list = list
	L.dirty, L.settled = min(L.dirty, first), last+1
	if g.d3 && gone != came {
		L.dirty, L.settled = 0, math.MaxInt32
	}
}

// flag marks rec r's flow for recomputation.
func (g *ledger) flag(r int32) {
	i := g.rank[r]
	g.flags[i>>6] |= 1 << (i & 63)
}

// before is the residual at position k of L's list: the capacity, or what
// the flow before it saw less what it took.
func (g *ledger) before(L *ledLink, k int32) float64 {
	if k == 0 {
		return L.cap
	}
	e := L.list[k-1]
	r := &g.recs[e.rec]
	return r.hops[e.hop].seen - r.grant
}

// dirty reports whether hop h reads the running residual this call.
func (g *ledger) dirty(h *ledHop) bool {
	L := &g.links[h.link]
	return g.full || (L.stamp == g.epoch && h.pos >= L.dirty)
}

// next hands L's running residual on to position k, the flow after one
// just served on L from it: that flow is flagged, unless k is settled and
// the residual is the one it saw last call, so that from k on L is clean
// again.
func (g *ledger) next(L *ledLink, k int32) {
	if int(k) >= len(L.list) {
		return
	}
	e := L.list[k]
	if k >= L.settled && math.Float64bits(g.recs[e.rec].hops[e.hop].seen) == math.Float64bits(L.run) {
		L.dirty = int32(len(L.list))
		return
	}
	g.flag(e.rec)
}

// moved records that the flow at hop h, clean there, took a grant with new
// bits: the link is dirty from just after it, its running residual what
// the flow saw less the new grant.
func (g *ledger) moved(h *ledHop, grant float64) {
	g.stamp(h.link)
	L := &g.links[h.link]
	L.dirty, L.run = h.pos+1, h.seen-grant
	g.next(L, h.pos+1)
}

// resetRuns starts every link's running residual at its capacity: the
// first thing a full call does.
func (g *ledger) resetRuns() {
	for i := range g.used {
		L := &g.links[i]
		L.run = L.cap
	}
}

// walk recomputes the flagged flows in service order with grant, which
// reads rec r's hops (a dirty hop's seen is already the running residual),
// sets the flow's Rate and returns the grant the flow takes off its links.
// When others may have set Rates since the last call, every other flow's
// Rate is set from its rec; otherwise the walk visits the flagged flows
// alone, taking each flag as it goes, so the next call finds none set.
func (g *ledger) walk(grant func(g *ledger, r *ledFlow) float64) {
	st := &g.stats
	st.calls++
	st.hops += g.hops
	if g.full {
		st.full++
	}
	if g.full || g.foreign {
		for i, e := range g.ord.ents {
			if !g.full && g.flags[i>>6]&(1<<(i&63)) == 0 {
				g.recs[e.rec].f.Rate = g.recs[e.rec].grant
				continue
			}
			g.recompute(&g.recs[e.rec], grant)
		}
		clear(g.flags)
		return
	}
	for w := range g.flags {
		for g.flags[w] != 0 { // a flow's flags go to later flows, maybe in this word
			b := bits.TrailingZeros64(g.flags[w])
			g.flags[w] &^= 1 << b
			g.recompute(&g.recs[g.ord.ents[w<<6|b].rec], grant)
		}
	}
}

// recompute gives rec r's flow its grant this call and hands the change
// on along its links.
func (g *ledger) recompute(r *ledFlow, grant func(g *ledger, r *ledFlow) float64) {
	g.stats.visited += len(r.hops)
	dirty := false
	for k := range r.hops {
		if h := &r.hops[k]; g.dirty(h) {
			h.seen = g.links[h.link].run
			dirty = true
		}
	}
	v := grant(g, r)
	same := math.Float64bits(v) == math.Float64bits(r.grant)
	r.grant = v
	if !dirty && same {
		return
	}
	for k := range r.hops {
		h := &r.hops[k]
		switch L := &g.links[h.link]; {
		case g.full:
			L.run -= v
		case g.dirty(h):
			if v != 0 { // a zero grant takes nothing
				L.run -= v
			}
			g.next(L, h.pos+1)
		case !same:
			g.moved(h, v)
		}
	}
}

// count is the number of flows still to serve on h's link when h's flow is
// served: its own and every later one (D3's pass 2).
func (g *ledger) count(h *ledHop) float64 {
	return float64(int32(len(g.links[h.link].list)) - h.pos)
}
