package flowsim

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"pdq/internal/netsim"
	"pdq/internal/sim"
)

// RCP is the flow-level fair-sharing allocator (RCP; also D3 with no
// deadlines, §5.1). Create instances with NewRCP: the allocator keeps the
// last call's filling, its rounds and every link's freezes, across steps,
// and may be handed from one simulation to the next.
//
// A fill runs in rounds. Every unfrozen flow holds one common level λ; a
// link's level is its residual after frozen flows over its unfrozen flows.
// Each round raises λ to the lowest link level, freezes at their NIC floor
// the flows whose floor is within 1e-9 of λ, in flow order, and then at λ
// the flows on every link left within its floor (1e-6 of its capacity) of
// saturating — the progressive filling of alloc_ref_test.go, which grants
// the same shares one round at a time. A rate is a level, not a sum of
// shares, so it may differ from the reference's in the last bits.
//
// A link's residual therefore depends only on its own freezes, in rounds:
// first its NIC freezes in flow order, then λ once per flow frozen at λ. So
// each link keeps its freezes, in freeze order, with the residual after
// each (the ledger), and it repeats bit for bit up to its first changed
// freeze. A call whose flows are the last call's less some departures
// rewrites only the links a change reaches, from that freeze on: the
// departed flows' links, and the links of every flow whose freeze moves.
// Its rounds are the logged ones, replayed without a scan, merged in level
// order with the rounds the rewritten links set (DESIGN.md §4). A first
// call, an arrival, a replaced Path or a moved capacity fills from level 0.
type RCP struct {
	flows    []rcpFlow       // the last fill's flows in the caller's order; departed ones stay, gone, until the next fill from level 0
	hops     []int32         // every flow's path as local link indices, flow after flow
	hpos     []int32         // by hop: where the flow's freeze on the link sits in ents
	lptr     []*netsim.Link  // the flows' links by local index, in first-touch order
	links    []rcpLink       // by local index: the link's ledger
	slots    []rcpSlot       // by local index: a fill from level 0's running state
	local    []int32         // by Link.ID: the local index, valid while lptr names the link there
	on       []int32         // each link's flows in flow order, link after link
	ents     []rcpEnt        // each link's freezes in freeze order, link after link
	paths    []**netsim.Link // by flow index: &Path[0] when the hops were copied
	ptrs     []*FlowState    // the listed flows in the caller's order
	idx      []int32         // each listed flow's index in flows
	rounds   []rcpRound      // the last fill's rounds, by ID
	seq      []int32         // the last fill's rounds in order, by ID
	free     []int32         // IDs no round holds
	ties     []rcpTie        // the rounds' ties
	margin   float64         // a level this far below a link's own cannot saturate it
	goneHops int             // the departed flows' hops
	x        rcpCall
	stats    rcpStats
}

// rcpFlow is one flow of the last fill: its NIC floor and hops, kept for
// as long as the flow keeps its Path, and the rate it froze at in which
// round and phase. It fills one cache line.
type rcpFlow struct {
	f     *FlowState
	nic   float64
	rate  float64
	at    int32 // first hop in RCP.hops
	rnd   int32 // the round it froze in, index into RCP.rounds
	nr    int32 // this call: the round it freezes in
	prev  int32 // the flows of its round, a list: -1 ends it
	next  int32
	by    int32 // the link whose saturation froze it at its round's level, -1 none
	mark  uint32
	n     uint16
	byNIC bool  // froze at its NIC floor, in its round's first phase
	gone  bool  // departed since the hops were copied
	st    uint8 // this call's state, while mark is the call's epoch
}

// Flow states of a call (rcpFlow.st). A flow the call has not reached
// follows the last fill; one in stPend is unfrozen where the last fill had
// frozen it.
const (
	stFrozen uint8 = 1 << iota // frozen in this call's fill
	stPend                     // waits to freeze in a later round than the last fill's
	stDiv                      // freezes in another round, or at another rate, than in the last fill
	stNIC                      // froze at its NIC floor (with stDiv)
)

// rcpSlot is a link's running state during a scanning fill: the fields a
// round's scan reads, packed, two links to a cache line.
type rcpSlot struct {
	residual float64 // capacity less the freezes so far, bits/s
	floor    float64 // 1e-6 of the capacity: at or below it the link saturates
	count    int32   // unfrozen flows
	seen     int32   // the last round that listed it as a saturation candidate
	end      int32   // where its next freeze goes in RCP.ents
	n        int32   // its flows in RCP.on
}

// rcpLink is one link's ledger: where its flows and its freezes sit, its
// capacity, and its version.
type rcpLink struct {
	cap  float64
	at   int32  // where its flows start in RCP.on and its freezes in RCP.ents
	ne   int32  // its freezes in RCP.ents: its flows still listed
	ver  uint32 // bumped whenever its freezes are rewritten
	mark uint32 // == rcpCall.epoch: rewritten this call, as rcpCall.rw[rw]
	rw   int32
	full bool // saturated, in the round of its last freeze
}

// rcpRw is a link one call rewrites: its state from its first changed
// freeze on, kept by hand.
type rcpRw struct {
	r     float64 // the residual after the freezes rewritten so far
	floor float64
	at    int32 // the link's rcpLink.at and .ne as the call found them
	ne    int32
	c     int32  // unfrozen flows
	d0    int32  // the first freeze rewritten
	rd    int32  // the next old freeze to read
	w     int32  // freezes rewritten, into rcpCall.ents at wo
	wo    int32  // where its rewritten freezes start in rcpCall.ents
	hx    int32  // index in the heap, -1 when out
	nx    int32  // the next link in its round's bucket
	inq   int32  // the logged round whose bucket holds it, -1 none
	sat   int32  // the round it saturated in, -1 none
	seen  int32  // the round whose work list holds it
	tick  uint32 // the last apply that froze a flow on it
}

// rcpKey is one heap entry: a rewritten link and the level at or below
// which it may saturate.
type rcpKey struct {
	key float64
	li  int32
}

// rcpEnt is one freeze on a link: the flow, its round and phase (the
// round's ID, doubled, plus one for a λ freeze), and the residual after it.
type rcpEnt struct {
	flow  int32
	rk    int32
	after float64
}

// rk is an entry's round and phase for a freeze in round r.
func rk(r int32, byNIC bool) int32 {
	if byNIC {
		return 2 * r
	}
	return 2*r + 1
}

// rcpRound is one round of a fill: its level, the lowest NIC floor frozen
// in it (or below), its flows, its ties, its place in the order, and
// whether it froze every unfrozen flow because no link saturated. A round
// keeps its ID for as long as calls replay it.
type rcpRound struct {
	level  float64
	minNIC float64
	t0, t1 int32 // its ties in RCP.ties
	pos    int32 // its position in RCP.seq
	head   int32 // its first flow, -1 none
	cnt    int32 // its flows
	live   int32 // the links a scan of it reads: those carrying an unfrozen flow
	all    bool
}

// rcpTie is a link whose level was exactly its round's, at its version
// then: while the version holds, the link's freezes before the round are
// the ones that gave that level.
type rcpTie struct {
	link int32
	ver  uint32
}

// rcpTup is one freeze a round makes on a rewritten link.
type rcpTup struct{ link, flow int32 }

func cmpTup(a, b rcpTup) int {
	if c := cmp.Compare(a.link, b.link); c != 0 {
		return c
	}
	return cmp.Compare(a.flow, b.flow)
}

// rcpCall is what one call that rewrites the ledger works with.
type rcpCall struct {
	epoch   uint32
	tick    uint32   // counts applies this call
	dep     []int32  // the flows departed since the last call
	head    []int32  // per old round: the first rewritten link whose next old freeze is in it
	rw      []rcpRw  // the links rewritten this call
	heap    []rcpKey // rewritten links with unfrozen flows, by key
	cand    []int32  // links taken off the heap this round
	work    []int32  // links a round's λ phase visits
	pend    []int32  // flows in stPend
	div     []int32  // flows a round freezes anew
	tup     []rcpTup // a phase's freezes on rewritten links
	dirt    []int32  // the links rewritten this call
	ents    []rcpEnt // rewritten freezes, each rewritten link's together
	moved   []int32  // flows frozen anew this call
	dead    []int32  // logged rounds dissolved this call
	live    []int32  // a scanning fill's links with unfrozen flows
	bits    []uint64 // by local index: the links a hand-over makes live
	rest    []int32  // a scanning fill's unfrozen flows
	scan    []int32  // by position in the log: what scanning from there reads
	seq     []int32  // this call's rounds in order, by ID
	ties    []rcpTie // this call's ties
	minPend float64  // lowest NIC floor in pend, or below
}

// rcpStats counts what an RCP's calls did: how many filled from level 0,
// and the flow-hops a call visited against those a fill visits.
type rcpStats struct {
	calls, full   int
	hops, visited int
}

// NewRCP returns an RCP allocator.
func NewRCP() *RCP { return &RCP{} }

// Rewind drops the last call's flows, so the next call fills from level
// 0: the arena they were carved from was rewound (an allocator kept
// there, carve.Keep, is rewound with it), or the next flows are another
// network's.
func (p *RCP) Rewind() {
	clear(p.flows)
	clear(p.paths)
	clear(p.ptrs)
	p.flows, p.ptrs = p.flows[:0], p.ptrs[:0]
}

// Allocate implements Allocator with max-min fairness by water level,
// respecting NIC limits.
func (p *RCP) Allocate(now sim.Time, flows []*FlowState, cap func(*netsim.Link) float64) {
	p.allocate(now, flows, cap, anyChange)
}

func (p *RCP) allocate(_ sim.Time, flows []*FlowState, cap capFn, c change) {
	p.stats.calls++
	if p.resume(flows, cap, c) {
		return
	}
	p.stats.full++
	p.build(flows, cap)
	p.rounds, p.ties, p.seq, p.free = p.rounds[:0], p.ties[:0], p.seq[:0], p.free[:0]
	x := &p.x
	x.live, x.rest = x.live[:0], x.rest[:0]
	for i := range p.links {
		x.live = append(x.live, int32(i))
	}
	for i := range p.flows {
		x.rest = append(x.rest, int32(i))
	}
	p.fill(math.Inf(-1))
	p.stats.hops += len(p.hops)
}

// ---------------------------------------------------------------------------
// The fill from level 0.

// build copies every flow's path as local link indices with its NIC floor,
// numbers the links in first-touch order and lists each link's flows. The
// per-link tables hold the links in use, not every link ID.
func (p *RCP) build(flows []*FlowState, capOf capFn) {
	n := 0
	for _, f := range flows {
		n += len(f.Path)
	}
	p.size(len(flows), n)
	fl, hops, lptr := p.flows[:len(flows)], p.hops[:n], p.lptr[:0]
	at := int32(0)
	for i, f := range flows {
		fl[i] = rcpFlow{f: f, nic: nicFloor(f.Path), at: at, by: -1, n: uint16(len(f.Path))}
		p.paths[i] = &f.Path[0]
		for _, l := range f.Path {
			if l.ID >= len(p.local) {
				p.local = append(p.local, make([]int32, max(l.ID+1, 2*len(p.local))-len(p.local))...)
			}
			li := p.local[l.ID]
			if int(li) >= len(lptr) || lptr[li] != l {
				li = int32(len(lptr))
				p.local[l.ID] = li
				lptr = append(lptr, l)
			}
			hops[at] = li
			at++
		}
	}
	if c := cap(p.links); c < len(lptr) {
		p.links = make([]rcpLink, grown(c, len(lptr)))
		p.slots = make([]rcpSlot, len(p.links))
	}
	links, slots := p.links[:len(lptr)], p.slots[:len(lptr)]
	capMax := 0.0
	for i, l := range lptr {
		c := capOf(l)
		capMax = max(capMax, c)
		links[i] = rcpLink{cap: c}
		slots[i] = rcpSlot{residual: c, floor: 1e-6 * c, seen: -1}
	}
	for _, li := range hops {
		slots[li].count++
	}
	p.flows, p.hops, p.lptr, p.links, p.slots, p.goneHops = fl, hops, lptr, links, slots, 0
	p.ptrs = append(p.ptrs[:0], flows...)
	p.idx = p.idx[:0]
	for i := range flows {
		p.idx = append(p.idx, int32(i))
	}
	// A level further than this below a link's own cannot saturate it: see
	// rcpLink.keyOf. Residuals never exceed capacities.
	p.margin = 3e-6*capMax + 1e-9
	at = 0
	for i := range links {
		L := &links[i]
		L.at, slots[i].n = at, slots[i].count
		at += slots[i].n
	}
	on := p.on[:at]
	for i := range links {
		slots[i].end = links[i].at
	}
	for i := range fl {
		for _, li := range hops[fl[i].at : fl[i].at+int32(fl[i].n)] {
			s := &slots[li]
			on[s.end] = int32(i)
			s.end++
		}
	}
}

// size grows RCP's per-flow and per-hop arrays, once, to what a fill of
// flows flows over hops hops needs.
func (p *RCP) size(flows, hops int) {
	if c := cap(p.flows); c < flows {
		p.flows = make([]rcpFlow, grown(c, flows))
		p.paths = make([]**netsim.Link, len(p.flows))
	}
	if c := cap(p.hops); c < hops {
		n := grown(c, hops)
		p.hops = make([]int32, n)
		p.hpos = make([]int32, n)
		p.on = make([]int32, n)
		p.ents = make([]rcpEnt, n)
	}
}

// grown is the room to make for n where c was too little: n on a first
// fill, and a quarter more than c at least on a later one, so that a
// pooled allocator passed from cell to cell does not grow on every one.
func grown(c, n int) int {
	if c == 0 {
		return n
	}
	return max(n, c+c/4)
}

// fill runs the rounds that freeze the unfrozen flows in x.rest over the
// links in x.live, from the slots' state, and logs them: from level 0, or
// from where a resumed fill handed over. minNIC is the lowest NIC floor
// among them, or below. A round costs one scan over the links still
// carrying an unfrozen flow plus the paths of the flows it freezes.
func (p *RCP) fill(minNIC float64) {
	fl, slots, links, on := p.flows, p.slots, p.links, p.on
	live, rest := p.x.live, p.x.rest
	sat := p.x.cand[:0]
	p.x.work = append(p.x.work[:0], live...)
	for _, li := range live {
		slots[li].end = links[li].at + links[li].ne
	}
	left := len(rest)
	for left > 0 {
		r := p.open()
		t0 := len(p.ties)
		// The lowest level a live link saturates at, and the links exactly
		// at it; a link whose level is within its floor of the running
		// minimum is a candidate, and the minimum only falls, so every link
		// saturated at the final level is among them.
		level := math.Inf(1)
		sat = sat[:0]
		n := 0
		for _, id := range live {
			s := &slots[id]
			if s.count == 0 {
				continue
			}
			live[n] = id
			n++
			c := float64(s.count)
			x := c * level
			// residual/c < level implies residual <= c·level even rounded,
			// so the division is taken only for a new minimum or a tie.
			if s.residual <= x {
				if v := s.residual / c; v < level {
					level = v
					x = c * level
					p.ties = append(p.ties[:t0], rcpTie{id, links[id].ver})
				} else if v == level {
					p.ties = append(p.ties, rcpTie{id, links[id].ver})
				}
			}
			if s.residual-x <= s.floor {
				s.seen = r
				sat = append(sat, id)
			}
		}
		live = live[:n]
		// Flows whose NIC caps them at the level freeze there first, as
		// the reference grants them less first. Their links are
		// candidates too: a NIC floor up to 1e-9 above the level may leave
		// one saturated that was not before.
		rmin := math.Inf(1)
		if minNIC <= level+1e-9 {
			minNIC = math.Inf(1)
			k := 0
			for _, i := range rest {
				switch g := &fl[i]; {
				case g.st&stFrozen != 0:
				case g.nic <= level+1e-9:
					p.freeze(i, g.nic, r, true)
					rmin = min(rmin, g.nic)
					for _, li := range p.hops[g.at : g.at+int32(g.n)] {
						if s := &slots[li]; s.seen != r {
							s.seen = r
							sat = append(sat, li)
						}
					}
				default:
					rest[k] = i
					k++
					minNIC = min(minNIC, g.nic)
				}
			}
			rest = rest[:k]
		}
		k := 0
		for _, id := range sat {
			if s := &slots[id]; s.count > 0 && s.residual-float64(float64(s.count)*level) <= s.floor {
				sat[k] = id
				k++
				links[id].full = true
			}
		}
		sat = sat[:k]
		for _, id := range sat {
			L := &links[id]
			for _, i := range on[L.at : L.at+slots[id].n] {
				if g := &fl[i]; g.st&stFrozen == 0 && !g.gone {
					p.freeze(i, level, r, false)
					g.by = id
				}
			}
		}
		all := p.rounds[r].cnt == 0
		if all {
			// No flow froze: every unfrozen flow holds the level.
			for _, i := range rest {
				if fl[i].st&stFrozen == 0 {
					p.freeze(i, level, r, false)
				}
			}
		}
		left -= int(p.rounds[r].cnt)
		R := &p.rounds[r]
		R.level, R.minNIC, R.t0, R.t1, R.live, R.all = level, rmin, int32(t0), int32(len(p.ties)), int32(n), all
	}
	for _, li := range p.x.work {
		links[li].ne = slots[li].end - links[li].at
	}
	p.x.live, p.x.rest, p.x.cand = live, rest, sat
}

// open appends a round to a fill, in order, and returns its ID.
func (p *RCP) open() int32 {
	r := p.newRound(0)
	p.rounds[r].pos = int32(len(p.seq))
	p.seq = append(p.seq, r)
	return r
}

// freeze fixes flow i's rate in fill round r, at its NIC floor or at the
// level, and logs it on its links.
func (p *RCP) freeze(i int32, rate float64, r int32, byNIC bool) {
	g := &p.flows[i]
	g.st, g.rate, g.byNIC, g.by = stFrozen, rate, byNIC, -1
	g.f.Rate = rate
	p.join(i, r)
	p.stats.visited += int(g.n)
	e := rcpEnt{flow: i, rk: rk(r, byNIC)}
	for k, li := range p.hops[g.at : g.at+int32(g.n)] {
		s := &p.slots[li]
		s.residual -= rate
		s.count--
		e.after = s.residual
		p.ents[s.end] = e
		p.hpos[g.at+int32(k)] = s.end
		s.end++
	}
}

// ---------------------------------------------------------------------------
// The resumed fill: the logged rounds merged with the rewritten links'.

// resume gives flows the rates a fill from level 0 would when they are the
// last call's flows less some, in the same order, over the same paths and
// capacities; it reports false, with the ledger spoilt, when the call must
// fill from level 0.
//
// It walks the logged rounds in order. A link is clean while its freezes
// so far are the logged ones, so its state is the logged one and no round
// need read it; every other link is rewritten from its first changed freeze
// on, with its residual and count kept by hand and its level in a heap.
// The next round's level is the lower of the rewritten links' lowest and
// the next logged round's level, which holds while one of the links that
// set it is still clean (a tie at its version). A logged round whose level
// no clean link gives any more is dissolved: its flows become pending and
// its links are rewritten. So is one whose level lies within the margin
// above the rewritten links' lowest, where a clean link could saturate
// early. A round at the logged level replays the logged freezes of clean
// links as they were, at no cost; a lower one is new. Either way the
// rewritten links take their NIC freezes and saturation tests by hand, and
// a flow that freezes in another round than it did is pending or moved,
// and rewrites its links. A flow keeps its logged λ freeze while one of
// its links still saturates in its round: a clean one that did, or a
// rewritten one that does.
func (p *RCP) resume(flows []*FlowState, cap capFn, c change) bool {
	fl, x := p.flows, &p.x
	if len(fl) == 0 || len(fl) > 2*len(flows) {
		return false // a first call, or more departed flows than live ones to skip
	}
	// The listed flows are compacted to flows as they are matched: the
	// ones flows skips departed.
	x.dep = x.dep[:0]
	ptrs, idx := p.ptrs, p.idx
	j := 0
	for i, f := range flows {
		for ; j < len(ptrs) && ptrs[j] != f; j++ {
			x.dep = append(x.dep, idx[j])
		}
		if j == len(ptrs) {
			return false // an arrival or a readmitted flow
		}
		if c != unchanged { // between hooks a Sim replaces no Path
			if i := idx[j]; p.paths[i] != &f.Path[0] || int(fl[i].n) != len(f.Path) {
				return false
			}
		}
		ptrs[i], idx[i] = f, idx[j]
		j++
	}
	for ; j < len(ptrs); j++ {
		x.dep = append(x.dep, idx[j])
	}
	p.ptrs, p.idx = ptrs[:len(flows)], idx[:len(flows)]
	if c != unchanged {
		for i, l := range p.lptr {
			if cap(l) != p.links[i].cap {
				return false
			}
		}
	}
	if len(x.dep) > 0 && !p.refill(len(flows)) {
		return false
	}
	p.stats.hops += len(p.hops) - p.goneHops
	if c == anyChange {
		for i := range fl {
			if g := &fl[i]; !g.gone {
				g.f.Rate = g.rate
			}
		}
	}
	return true
}

// refill rewrites the fill after this call's departures; see resume.
func (p *RCP) refill(left int) bool {
	fl, x := p.flows, &p.x
	visited := p.stats.visited
	p.bump()
	x.head = resize(x.head, len(p.rounds))
	for r := range x.head {
		x.head[r] = -1
	}
	x.heap, x.pend, x.dirt, x.moved, x.dead, x.ents, x.rw = x.heap[:0], x.pend[:0], x.dirt[:0], x.moved[:0], x.dead[:0], x.ents[:0], x.rw[:0]
	x.seq, x.ties = x.seq[:0], x.ties[:0]
	x.minPend = math.Inf(1)
	for _, d := range x.dep {
		g := &fl[d]
		g.gone = true
		p.goneHops += int(g.n)
		p.leave(d)
	}
	// Before the first logged round a departed flow froze in, a departed
	// flow's links have the same residuals and one flow fewer: at a level
	// of 0 or more, which bounds their residuals too, they saturate no
	// sooner and set no lower level. So the rounds before it replay as
	// logged, while each keeps a clean tie other than a departed flow's
	// link and a level of 0 or more; the departed flows' links are
	// rewritten from the first that does not.
	seq := p.seq
	start := int32(len(seq))
	for _, d := range x.dep {
		g := &fl[d]
		start = min(start, p.rounds[g.rnd].pos)
		for _, li := range p.hops[g.at : g.at+int32(g.n)] {
			p.slots[li].seen = departed
		}
	}
	for k, r := range seq[:start] {
		if R := &p.rounds[r]; R.all || !(R.level >= 0) || !p.cleanOf(r) {
			start = int32(k)
			break
		}
	}
	for _, d := range x.dep {
		g := &fl[d]
		for _, li := range p.hops[g.at : g.at+int32(g.n)] {
			p.slots[li].seen = -1
			p.dirty(li, start, false)
			p.rw(li).c--
			p.settle(li)
		}
		p.stats.visited += int(g.n)
	}
	for _, r := range seq[:start] {
		R := &p.rounds[r]
		t0 := int32(len(x.ties))
		for _, t := range p.ties[R.t0:R.t1] {
			if p.links[t.link].ver == t.ver {
				x.ties = append(x.ties, t)
			}
		}
		R.t0, R.t1 = t0, int32(len(x.ties))
		left -= int(R.cnt)
	}
	x.seq = append(x.seq, seq[:start]...)
	// scan[k] is what handing over at position k costs: the slots the
	// scans of the logged rounds from there read, and twice their flows'
	// hops, which the hand-over and the freezes visit.
	x.scan = resize(x.scan, len(seq)+1)
	perFlow := len(p.hops) / len(fl)
	x.scan[len(seq)] = 0
	for k := len(seq) - 1; k >= 0; k-- {
		R := &p.rounds[seq[k]]
		x.scan[k] = x.scan[k+1] + R.live + 2*R.cnt*int32(perFlow)
	}
	// dearer reports whether handing over at position k costs less than
	// resuming: than dissolving a round whose flows have dissolving hops,
	// or, once the call has visited half a fill's flow-hops, than going on.
	dearer := func(k, dissolving int) bool {
		if dissolving > 0 {
			return dissolveCost*dissolving > int(x.scan[k])
		}
		return 2*(p.stats.visited-visited) > len(p.hops)
	}
	k := int(start) // the next logged round, in seq
	for left > 0 {
		// The next logged round whose level a clean link still gives.
		m, r, at := math.Inf(1), int32(-1), int32(len(seq))
		for ; k < len(seq); k++ {
			r, at = seq[k], int32(k)
			if p.rounds[r].all {
				return false
			}
			if p.clean(r) {
				m = p.rounds[r].level
				break
			}
			if dearer(k, int(p.rounds[r].cnt)*perFlow) {
				p.handOver(at)
				return true
			}
			p.dissolve(r)
		}
		if k == len(seq) {
			r, at = -1, int32(len(seq))
		}
		mu := p.lowest(m)
		if mu < m && m-mu <= p.margin {
			if dearer(k, int(p.rounds[r].cnt)*perFlow) {
				p.handOver(at)
				return true
			}
			p.dissolve(r)
			k++
			continue
		}
		if dearer(k, 0) {
			p.handOver(at)
			return true
		}
		level := min(mu, m)
		if math.IsInf(level, 1) {
			return false
		}
		replay := level == m
		nr := r
		if !replay {
			nr = p.newRound(level)
		}
		t0 := int32(len(x.ties))
		if replay {
			R := &p.rounds[r]
			for _, t := range p.ties[R.t0:R.t1] {
				if p.links[t.link].ver == t.ver {
					x.ties = append(x.ties, t)
				}
			}
		}
		for _, li := range x.cand {
			if L := p.rw(li); L.r/float64(L.c) == level {
				x.ties = append(x.ties, rcpTie{li, p.links[li].ver})
			}
		}
		var frozen int
		rmin := math.Inf(1)
		if replay && x.head[r] < 0 && x.minPend > level+1e-9 && (len(x.heap) == 0 || x.heap[0].key > level) {
			// No rewritten link and no pending flow takes part: the round
			// is the logged one.
			frozen = int(p.rounds[r].cnt)
		} else {
			c := rcpCur{r: r, nr: nr, at: at, level: level, replay: replay}
			frozen, rmin = p.nicPhase(&c)
			frozen += p.satPhase(&c)
		}
		if frozen == 0 {
			return false // the fill from level 0 freezes every flow here
		}
		R := &p.rounds[nr]
		R.minNIC = min(R.minNIC, rmin)
		if !replay && r >= 0 {
			R.live = p.rounds[r].live
		}
		R.t0, R.t1 = t0, int32(len(x.ties))
		x.seq = append(x.seq, nr)
		if replay {
			k++
		}
		left -= frozen
	}
	// The logged rounds not reached hold no flow that follows them.
	x.dead = append(x.dead, seq[k:]...)
	p.commit()
	return true
}

// bump starts a new epoch of marks.
func (p *RCP) bump() {
	x := &p.x
	x.epoch++
	if x.epoch == 0 { // wrapped: marks from 2³² epochs ago could collide
		for i := range p.flows {
			p.flows[i].mark = 0
		}
		for i := range p.links {
			p.links[i].mark = 0
		}
		x.epoch = 1
	}
}

// dissolveCost is what a dissolved round costs per flow-hop of its flows,
// in slots a scan reads in the same time: its flows rewrite their links,
// and the flows on those links rewrite more. Measured on flow-scale's
// draws: a fat-tree round freezes a dozen flows, and dissolving one costs
// more than scanning what is left; a BCube round freezes three or four.
const dissolveCost = 32

// handOver finishes this call's fill with scanning rounds from the logged
// round at position at, where resuming costs more than the scans of the
// rounds left would: once a departure's reach is most of the flows. The
// unfrozen flows are the pending ones and those of the rounds not reached.
// A rewritten link keeps its state; a clean one that carries an unfrozen
// flow takes the residual and count after its freezes before the point.
func (p *RCP) handOver(at int32) {
	fl, x := p.flows, &p.x
	rest := x.rest[:0]
	if n := (len(p.links) + 63) / 64; cap(x.bits) < n {
		x.bits = make([]uint64, n)
	} else {
		x.bits = x.bits[:n]
	}
	for _, li := range x.dirt {
		L, s := p.rw(li), &p.slots[li]
		p.keep(li)
		s.residual, s.count, s.seen = L.r, L.c, rewritten
		if L.c > 0 {
			x.bits[li>>6] |= 1 << (li & 63)
		}
	}
	for _, i := range x.pend {
		if fl[i].st&stFrozen == 0 {
			rest = append(rest, i)
		}
	}
	for _, r := range p.seq[at:] {
		R := &p.rounds[r]
		for i := R.head; i >= 0; i = fl[i].next {
			fl[i].st = 0
			rest = append(rest, i)
		}
		R.head, R.cnt = -1, 0
	}
	// A clean link's first freeze from the point on is its first unfrozen
	// flow's.
	minNIC := math.Inf(1)
	x.cand = x.cand[:0]
	for _, i := range rest {
		g := &fl[i]
		minNIC = min(minNIC, g.nic)
		for k, li := range p.hops[g.at : g.at+int32(g.n)] {
			s, h := &p.slots[li], p.hpos[g.at+int32(k)]
			switch s.seen {
			case rewritten:
			case reached:
				s.end = min(s.end, h)
			default:
				s.seen, s.end = reached, h
				x.cand = append(x.cand, li)
			}
		}
		p.stats.visited += int(g.n)
	}
	for _, li := range x.dirt {
		p.slots[li].seen = -1
	}
	for _, li := range x.cand {
		L, s := &p.links[li], &p.slots[li]
		d0 := s.end - L.at
		L.ver++
		s.residual, s.count, s.seen = L.cap, L.ne-d0, -1
		if d0 > 0 {
			s.residual = p.ents[s.end-1].after
		}
		L.ne, L.full = d0, false
		x.bits[li>>6] |= 1 << (li & 63)
	}
	for _, i := range x.moved {
		g := &fl[i]
		p.join(i, g.nr)
		g.byNIC = g.st&stNIC != 0
	}
	p.free = append(append(p.free, x.dead...), p.seq[at:]...)
	p.seq, x.seq = x.seq, p.seq
	for k, r := range p.seq {
		p.rounds[r].pos = int32(k)
	}
	p.ties, x.ties = x.ties, p.ties
	// The scans read the slots in order.
	live := x.live[:0]
	for w, b := range x.bits {
		for ; b != 0; b &= b - 1 {
			live = append(live, int32(w<<6|bits.TrailingZeros64(b)))
		}
	}
	clear(x.bits)
	x.live, x.rest = live, rest
	p.fill(minNIC)
}

// keep copies rewritten link li's new freezes into the ledger, and where
// each sits to its flow's hop.
func (p *RCP) keep(li int32) {
	L := p.rw(li)
	for j := L.d0; j < L.d0+L.w; j++ {
		e := p.x.ents[L.wo+j-L.d0]
		p.ents[L.at+j] = e
		g := &p.flows[e.flow]
		for k, h := range p.hops[g.at : g.at+int32(g.n)] {
			if h == li {
				p.hpos[g.at+int32(k)] = L.at + j
				break
			}
		}
	}
	G := &p.links[li]
	G.ne, G.full = L.d0+L.w, L.sat >= 0
}

// before returns how many of L's freezes come before key, twice the
// position of a logged round plus one after its NIC freezes: freezes are
// in round order, each round's NIC ones first.
func (p *RCP) before(L *rcpLink, key int32) int32 {
	k, _ := slices.BinarySearchFunc(p.ents[L.at:L.at+L.ne], key, func(e rcpEnt, key int32) int {
		return cmp.Compare(2*p.rounds[e.rk>>1].pos+e.rk&1, key)
	})
	return int32(k)
}

// rcpCur is the round a resumed fill is making: the next logged round r
// (-1: none) at position at of the log, the round's ID nr (r when it
// replays r) and its level.
type rcpCur struct {
	r, nr, at int32
	level     float64
	replay    bool
}

// newRound returns the ID of a new, empty round at level.
func (p *RCP) newRound(level float64) int32 {
	var id int32
	if n := len(p.free); n > 0 {
		id = p.free[n-1]
		p.free = p.free[:n-1]
	} else {
		id = int32(len(p.rounds))
		p.rounds = append(p.rounds, rcpRound{})
	}
	p.rounds[id] = rcpRound{level: level, minNIC: math.Inf(1), pos: -1, head: -1}
	return id
}

// resize returns s with length n, reusing its storage when it can.
func resize(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n, n+n/4)
	}
	return s[:n]
}

// state is flow g's state this call: 0 while it follows the last fill.
func (p *RCP) state(g *rcpFlow) uint8 {
	if g.mark != p.x.epoch {
		return 0
	}
	return g.st
}

// set gives flow g its state this call and the round it freezes in.
func (p *RCP) set(g *rcpFlow, st uint8, nr int32) {
	g.mark, g.st, g.nr = p.x.epoch, st, nr
}

// frozen reports whether flow g, which follows the last fill, is frozen
// by the time the round c makes reaches its λ phase.
func (p *RCP) frozen(g *rcpFlow, c *rcpCur) bool {
	return p.rounds[g.rnd].pos < c.at || c.replay && g.rnd == c.r && g.byNIC
}

// clean reports whether logged round r's level is still set by a clean
// link: a tie whose version has not moved.
func (p *RCP) clean(r int32) bool {
	R := &p.rounds[r]
	for _, t := range p.ties[R.t0:R.t1] {
		if p.links[t.link].ver == t.ver {
			return true
		}
	}
	return false
}

// Marks in rcpSlot.seen outside a fill: a departed flow's link while a
// call looks for where its rounds stop replaying as logged, and during a
// hand-over a rewritten link and a clean one an unfrozen flow reached.
const (
	departed  = -5
	rewritten = -3
	reached   = -2
)

// cleanOf reports whether logged round r's level is still set by a clean
// link that no departed flow crossed.
func (p *RCP) cleanOf(r int32) bool {
	R := &p.rounds[r]
	for _, t := range p.ties[R.t0:R.t1] {
		if p.links[t.link].ver == t.ver && p.slots[t.link].seen != departed {
			return true
		}
	}
	return false
}

// dirty starts rewriting link li from the logged round at position at of
// the log, before its NIC freezes or after them, unless it is rewritten
// already: its residual and count are the logged ones there.
func (p *RCP) dirty(li, at int32, afterNIC bool) bool {
	G := &p.links[li]
	if G.mark == p.x.epoch {
		return false
	}
	G.mark = p.x.epoch
	G.ver++
	key := 2 * at
	if afterNIC {
		key++
	}
	d0 := p.before(G, key)
	x := &p.x
	G.rw = int32(len(x.rw))
	x.rw = append(x.rw, rcpRw{r: G.cap, floor: 1e-6 * G.cap, at: G.at, ne: G.ne,
		c: G.ne - d0, d0: d0, rd: d0, wo: int32(len(x.ents)), hx: -1, inq: -1, sat: -1, seen: -1})
	L := &x.rw[G.rw]
	if d0 > 0 {
		L.r = p.ents[L.at+d0-1].after
	}
	x.ents = slices.Grow(x.ents, int(L.c))[:int(L.wo+L.c)]
	x.dirt = append(x.dirt, li)
	p.enqueue(li)
	p.settle(li)
	return true
}

// rw is rewritten link li's record this call.
func (p *RCP) rw(li int32) *rcpRw { return &p.x.rw[p.links[li].rw] }

// enqueue puts rewritten link li into the bucket of the logged round of
// its next old freeze, if any is left to read.
func (p *RCP) enqueue(li int32) {
	L := p.rw(li)
	if L.rd == L.ne {
		return
	}
	r := p.ents[L.at+L.rd].rk >> 1
	L.inq, L.nx = r, p.x.head[r]
	p.x.head[r] = li
}

// drain takes logged round r's bucket, appending its links to list.
func (p *RCP) drain(r int32, list []int32) []int32 {
	if r < 0 {
		return list
	}
	for li := p.x.head[r]; li >= 0; {
		L := p.rw(li)
		list = append(list, li)
		L.inq = -1
		li = L.nx
	}
	p.x.head[r] = -1
	return list
}

// keyOf is a level at or below which L may saturate: its level less twice
// its floor and far more than any rounding. At a level λ below it, L's
// residual less its count times λ stays above its floor.
func keyOf(L *rcpRw) float64 {
	return L.r/float64(L.c) - 2*L.floor - 1e-9*(math.Abs(L.r)+1)
}

// settle brings rewritten link li's place in the heap up to date: in, by
// key, while it carries an unfrozen flow.
func (p *RCP) settle(li int32) {
	L := p.rw(li)
	if L.c == 0 {
		if L.hx >= 0 {
			p.hdel(L.hx)
		}
		return
	}
	k := rcpKey{keyOf(L), li}
	if L.hx < 0 {
		L.hx = int32(len(p.x.heap))
		p.x.heap = append(p.x.heap, k)
		p.up(L.hx)
		return
	}
	p.x.heap[L.hx] = k
	if !p.down(L.hx) {
		p.up(L.hx)
	}
}

// lowest takes off the heap every rewritten link that may sit at or below
// min(m, the lowest rewritten level) into cand, and returns that lowest
// level (+Inf if above m); the links go back on the heap at once.
func (p *RCP) lowest(m float64) float64 {
	x := &p.x
	x.cand = x.cand[:0]
	mu := math.Inf(1)
	for len(x.heap) > 0 && x.heap[0].key <= min(m, mu) {
		li := x.heap[0].li
		p.hdel(0)
		x.cand = append(x.cand, li)
		L := p.rw(li)
		mu = min(mu, L.r/float64(L.c))
	}
	for _, li := range x.cand {
		p.settle(li)
	}
	return mu
}

// dissolve drops logged round r: its flows that still follow the last fill
// become pending and rewrite their links from before the round, and the
// rewritten links read past its freezes.
func (p *RCP) dissolve(r int32) {
	fl, x := p.flows, &p.x
	at := p.rounds[r].pos
	for i := p.rounds[r].head; i >= 0; {
		g := &fl[i]
		next := g.next
		if p.state(g) == 0 {
			p.pending(g, i, at, false)
		}
		i = next
	}
	x.work = p.drain(r, x.work[:0])
	for _, li := range x.work {
		L := p.rw(li)
		n := L.rd
		for L.rd < L.ne && p.ents[L.at+L.rd].rk>>1 == r {
			L.rd++
		}
		p.stats.visited += int(L.rd - n)
		p.enqueue(li)
	}
	x.dead = append(x.dead, r)
}

// pending makes flow i, which followed the last fill, unfrozen where that
// froze it, and rewrites its links from the logged round at position at.
func (p *RCP) pending(g *rcpFlow, i, at int32, afterNIC bool) {
	p.set(g, stPend|stDiv, -1)
	p.leave(i)
	p.x.pend = append(p.x.pend, i)
	p.x.minPend = min(p.x.minPend, g.nic)
	for _, li := range p.hops[g.at : g.at+int32(g.n)] {
		p.dirty(li, at, afterNIC)
	}
	p.stats.visited += int(g.n)
}

// move freezes flow i at rate in round c.nr where the last fill froze it
// elsewhere, or at another rate, and rewrites its links from the round's
// start, or from after its NIC freezes.
func (p *RCP) move(g *rcpFlow, i int32, c *rcpCur, rate float64, st uint8, afterNIC bool) {
	if p.state(g) == 0 {
		p.leave(i)
	}
	p.set(g, stFrozen|stDiv|st, c.nr)
	g.rate = rate
	g.f.Rate = rate
	p.x.moved = append(p.x.moved, i)
	for _, li := range p.hops[g.at : g.at+int32(g.n)] {
		p.dirty(li, c.at, afterNIC)
	}
	p.stats.visited += int(g.n)
}

// nicPhase makes a round's NIC freezes: the pending flows whose floor is
// within 1e-9 of the level, and in a replay logged round r's NIC freezes,
// or in a new round those of them the level reaches already. It applies
// them to the rewritten links, each link's in flow order, and returns how
// many flows froze anew and the lowest floor among them. A replayed
// round's logged freezes are counted with its λ phase.
func (p *RCP) nicPhase(c *rcpCur) (int, float64) {
	fl, x := p.flows, &p.x
	lim := c.level + 1e-9
	x.div = x.div[:0]
	if x.minPend <= lim {
		k, low := 0, math.Inf(1)
		for _, i := range x.pend {
			switch g := &fl[i]; {
			case g.st&stFrozen != 0:
			case g.nic <= lim:
				x.div = append(x.div, i)
			default:
				x.pend[k] = i
				k++
				low = min(low, g.nic)
			}
		}
		x.pend, x.minPend = x.pend[:k], low
	}
	if !c.replay && c.r >= 0 && p.rounds[c.r].minNIC <= lim {
		for i := p.rounds[c.r].head; i >= 0; i = fl[i].next {
			if g := &fl[i]; g.byNIC && g.nic <= lim && p.state(g) == 0 {
				x.div = append(x.div, i)
			}
		}
	}
	slices.Sort(x.div)
	div := x.div
	rmin := math.Inf(1)
	for _, i := range div {
		g := &fl[i]
		p.move(g, i, c, g.nic, stNIC, false)
		rmin = min(rmin, g.nic)
	}
	x.tup = x.tup[:0]
	if c.replay && p.rounds[c.r].minNIC < math.Inf(1) {
		// The rewritten links' logged NIC freezes in this round.
		x.work = p.drain(c.r, x.work[:0])
		for _, li := range x.work {
			L := p.rw(li)
			for ; L.rd < L.ne; L.rd++ {
				e := p.ents[L.at+L.rd]
				if e.rk != rk(c.r, true) {
					break
				}
				p.stats.visited++
				if g := &fl[e.flow]; !g.gone && p.state(g)&stDiv == 0 {
					x.tup = append(x.tup, rcpTup{li, e.flow})
				}
			}
			p.enqueue(li)
		}
	}
	for _, i := range div {
		g := &fl[i]
		for _, li := range p.hops[g.at : g.at+int32(g.n)] {
			x.tup = append(x.tup, rcpTup{li, i})
		}
	}
	p.apply(c.nr, true, func(i int32) float64 { return fl[i].rate })
	return len(div), rmin
}

// apply makes the phase's freezes on the rewritten links with the rate
// rate gives each flow, and logs them. NIC freezes are made in flow order,
// each link's; λ freezes all take the same rate, in any order.
func (p *RCP) apply(nr int32, nic bool, rate func(int32) float64) {
	x := &p.x
	if len(x.tup) == 0 {
		return
	}
	rk := rk(nr, nic)
	if nic {
		slices.SortFunc(x.tup, cmpTup)
	}
	x.tick++
	touched := x.cand[:0]
	for _, t := range x.tup {
		L := p.rw(t.link)
		L.r -= rate(t.flow)
		L.c--
		x.ents[L.wo+L.w] = rcpEnt{t.flow, rk, L.r}
		L.w++
		if L.tick != x.tick {
			L.tick = x.tick
			touched = append(touched, t.link)
		}
	}
	for _, li := range touched {
		p.settle(li)
	}
	x.cand = touched
}

// work puts rewritten link li on round nr's work list.
func (p *RCP) work(li, nr int32) {
	if L := p.rw(li); L.seen != nr {
		L.seen = nr
		p.x.work = append(p.x.work, li)
	}
}

// satPhase makes a round's freezes at its level on saturated links and
// applies them to the rewritten links; it returns how many flows froze,
// those a replayed round keeps from its log among them. A rewritten link
// saturates when its residual less its count times the level is within its
// floor; a clean link as it did in logged round r. In a new round no clean
// link saturates: its level is above the margin.
func (p *RCP) satPhase(c *rcpCur) int {
	fl, x := p.flows, &p.x
	r, nr, level := c.r, c.nr, c.level
	x.work, x.div = x.work[:0], x.div[:0]
	// Only a rewritten link within its key of the level can saturate.
	x.cand = x.cand[:0]
	for len(x.heap) > 0 && x.heap[0].key <= level {
		x.cand = append(x.cand, x.heap[0].li)
		p.hdel(0)
	}
	for _, li := range x.cand {
		if p.test(li, nr, level) {
			p.work(li, nr)
		}
		p.settle(li)
	}
	for w := 0; ; w++ {
		if c.replay {
			// Links with freezes of this round to read; rewriting adds more.
			x.cand = p.drain(r, x.cand[:0])
			for _, li := range x.cand {
				p.work(li, nr)
			}
		}
		if w == len(x.work) {
			break
		}
		li := x.work[w]
		L := p.rw(li)
		if c.replay {
			// This round's logged λ freezes on li: each holds while one of
			// its links saturates, else the flow is pending.
			for k := L.rd; k < L.ne; k++ {
				e := p.ents[L.at+k]
				if e.rk>>1 != r {
					break
				}
				p.stats.visited++
				g := &fl[e.flow]
				if g.gone || p.state(g) != 0 {
					continue
				}
				if p.held(g, r, nr) {
					p.set(g, stFrozen, nr)
					continue
				}
				n := len(x.dirt)
				p.pending(g, e.flow, c.at, true)
				p.joinSat(n, c)
				L = p.rw(li) // x.rw may have grown
			}
		}
		if L.sat != nr {
			continue
		}
		// Saturated: every flow still unfrozen on li freezes at the level.
		for k := L.d0; k < L.ne; k++ {
			e := p.ents[L.at+k]
			g := &fl[e.flow]
			p.stats.visited++
			if g.gone {
				continue
			}
			switch st := p.state(g); {
			case st&stFrozen != 0:
			case st == 0 && p.frozen(g, c):
			case st == 0 && c.replay && g.rnd == r:
				g.by = li
				p.set(g, stFrozen, nr) // its logged freeze
			default:
				g.by = li
				n := len(x.dirt)
				p.move(g, e.flow, c, level, 0, c.replay)
				x.div = append(x.div, e.flow)
				p.joinSat(n, c)
				L = p.rw(li) // x.rw may have grown
			}
		}
	}
	frozen := len(x.div)
	x.tup = x.tup[:0]
	if c.replay {
		frozen += int(p.rounds[r].cnt)
		// The drained links read this round's freezes; a link queued in a
		// later round's bucket has none.
		for _, li := range x.work {
			L := p.rw(li)
			if L.inq >= 0 {
				continue
			}
			for ; L.rd < L.ne; L.rd++ {
				e := p.ents[L.at+L.rd]
				if e.rk>>1 != r {
					break
				}
				if g := &fl[e.flow]; !g.gone && p.state(g)&stDiv == 0 {
					x.tup = append(x.tup, rcpTup{li, e.flow})
				}
			}
			p.enqueue(li)
		}
	}
	for _, i := range x.div {
		g := &fl[i]
		for _, li := range p.hops[g.at : g.at+int32(g.n)] {
			x.tup = append(x.tup, rcpTup{li, i})
		}
	}
	p.apply(nr, false, func(int32) float64 { return level })
	return frozen
}

// joinSat puts the links rewritten since x.dirt held n that saturate in
// round c on its work list. They start after the round's NIC freezes in a
// replay, before the round in a new one, so their state is the one the
// round tests.
func (p *RCP) joinSat(n int, c *rcpCur) {
	for _, li := range p.x.dirt[n:] {
		if p.test(li, c.nr, c.level) {
			p.work(li, c.nr)
		}
	}
}

// test reports whether rewritten link li saturates at level in round nr,
// and records it.
func (p *RCP) test(li, nr int32, level float64) bool {
	L := p.rw(li)
	if L.c > 0 && L.r-float64(float64(L.c)*level) <= L.floor {
		L.sat = nr
		return true
	}
	return false
}

// held reports whether flow g keeps its logged λ freeze in logged round r:
// one of its links saturates in this round, a rewritten one now or a clean
// one as it did. The link that froze it last call is asked first; the one
// found holds it next call.
func (p *RCP) held(g *rcpFlow, r, nr int32) bool {
	if g.by >= 0 && p.holds(g.by, r, nr) {
		return true
	}
	p.stats.visited += int(g.n)
	for _, li := range p.hops[g.at : g.at+int32(g.n)] {
		if p.holds(li, r, nr) {
			g.by = li
			return true
		}
	}
	return false
}

// holds reports whether link li saturates in this round: rewritten, in
// round nr; clean, in logged round r, the round of its last freeze.
func (p *RCP) holds(li, r, nr int32) bool {
	G := &p.links[li]
	if G.mark == p.x.epoch {
		return p.x.rw[G.rw].sat == nr
	}
	return G.full && p.ents[G.at+G.ne-1].rk>>1 == r
}

// commit makes this call's fill the logged one: the rewritten links'
// freezes, the moved flows' rounds, the rounds' order and their ties.
func (p *RCP) commit() {
	x := &p.x
	for _, li := range x.dirt {
		p.keep(li)
	}
	for _, i := range x.moved {
		g := &p.flows[i]
		p.join(i, g.nr)
		g.byNIC = g.st&stNIC != 0
	}
	p.free = append(p.free, x.dead...)
	p.seq, x.seq = x.seq, p.seq
	for k, r := range p.seq {
		p.rounds[r].pos = int32(k)
	}
	p.ties, x.ties = x.ties, p.ties
	x.heap = x.heap[:0]
}

// join lists flow i in round r.
func (p *RCP) join(i, r int32) {
	g, R := &p.flows[i], &p.rounds[r]
	g.rnd, g.prev, g.next = r, -1, R.head
	if R.head >= 0 {
		p.flows[R.head].prev = i
	}
	R.head = i
	R.cnt++
}

// leave takes flow i off its round's list.
func (p *RCP) leave(i int32) {
	g := &p.flows[i]
	R := &p.rounds[g.rnd]
	if g.prev >= 0 {
		p.flows[g.prev].next = g.next
	} else {
		R.head = g.next
	}
	if g.next >= 0 {
		p.flows[g.next].prev = g.prev
	}
	R.cnt--
}

// The heap of rewritten links, by key.

func (p *RCP) less(a, b int32) bool { return p.x.heap[a].key < p.x.heap[b].key }

func (p *RCP) swap(a, b int32) {
	h := p.x.heap
	h[a], h[b] = h[b], h[a]
	p.rw(h[a].li).hx, p.rw(h[b].li).hx = a, b
}

func (p *RCP) up(i int32) {
	for i > 0 {
		parent := (i - 1) / 2
		if !p.less(i, parent) {
			return
		}
		p.swap(i, parent)
		i = parent
	}
}

func (p *RCP) down(i int32) bool {
	start, n := i, int32(len(p.x.heap))
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && p.less(c+1, c) {
			c++
		}
		if !p.less(c, i) {
			break
		}
		p.swap(i, c)
		i = c
	}
	return i > start
}

// hdel takes the entry at heap index i off the heap.
func (p *RCP) hdel(i int32) {
	h := p.x.heap
	last := int32(len(h) - 1)
	p.rw(h[i].li).hx = -1
	if i != last {
		h[i] = h[last]
		p.rw(h[i].li).hx = i
	}
	p.x.heap = h[:last]
	if i != last {
		if !p.down(i) {
			p.up(i)
		}
	}
}
