package flowsim

// The full-recompute allocators as they stood before the incremental
// rewrite, kept verbatim (types renamed ref*) as the reference the
// differential and fuzz tests in alloc_diff_test.go hold the production
// allocators to: PDQ and D3 bit for bit, RCP within rcpTol, because it
// fills by water level where refRCP sums one share per round. Every call
// re-sorts every flow with sort.Stable, re-derives the NIC floor and the
// absolute deadline from the flow, and water-fills over all flows, frozen
// or not. Do not optimise this file — its value is that it is obviously
// the §3/§5.1 algorithm. One semantic change was made to both copies:
// D3 reserves nothing for a deadline at sim.MaxTime, the infinite
// deadline TestMetamorphicInfiniteDeadline compares with none.

import (
	"math"
	"math/rand"
	"sort"

	"pdq/internal/netsim"
	"pdq/internal/sim"
)

// refScratch is the dense per-link workspace the allocators reuse across
// steps: links carry dense IDs, so per-link residual capacity and flow
// counts live in flat slices indexed by Link.ID instead of per-step maps.
// Entries are lazily initialized per allocation round via an epoch stamp —
// no clearing, no rehashing, no steady-state allocation (DESIGN.md §4).
type refScratch struct {
	epoch    uint32
	stamp    []uint32       // stamp[id] == epoch ⇒ entry is live this round
	residual []float64      // remaining capacity of link id, bits/s
	count    []int32        // flows crossing link id (allocator-specific)
	touched  []*netsim.Link // links initialized this round, in touch order
	ordered  []*FlowState   // reusable sort buffer
	frozen   []bool         // reusable per-flow flags
	sorter   refFlowSorter  // reusable sort.Interface over ordered
}

// begin opens a new allocation round, invalidating every entry.
func (sc *refScratch) begin() {
	sc.touched = sc.touched[:0]
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stamps from 2³² rounds ago could collide
		for i := range sc.stamp {
			sc.stamp[i] = 0
		}
		sc.epoch = 1
	}
}

// slot returns the dense index of l, initializing its residual from capFn
// and zeroing its count on the first touch of the round.
func (sc *refScratch) slot(l *netsim.Link, capFn func(*netsim.Link) float64) int {
	id := l.ID
	if id >= len(sc.stamp) {
		n := id + 1
		if n < 2*len(sc.stamp) {
			n = 2 * len(sc.stamp)
		}
		stamp := make([]uint32, n)
		copy(stamp, sc.stamp)
		sc.stamp = stamp
		residual := make([]float64, n)
		copy(residual, sc.residual)
		sc.residual = residual
		count := make([]int32, n)
		copy(count, sc.count)
		sc.count = count
	}
	if sc.stamp[id] != sc.epoch {
		sc.stamp[id] = sc.epoch
		sc.residual[id] = capFn(l)
		sc.count[id] = 0
		sc.touched = append(sc.touched, l)
	}
	return id
}

// orderedCopy fills the reusable sort buffer with flows.
func (sc *refScratch) orderedCopy(flows []*FlowState) []*FlowState {
	sc.ordered = append(sc.ordered[:0], flows...)
	return sc.ordered
}

// sortOrdered stably sorts the buffer with a pre-bound comparator. Using a
// reusable sort.Interface instead of sort.SliceStable avoids the closure
// and reflect-swapper allocations the slice helpers make per call.
func (sc *refScratch) sortOrdered(less func(a, b *FlowState) bool) {
	sc.sorter.flows = sc.ordered
	sc.sorter.less = less
	sort.Stable(&sc.sorter)
	sc.sorter.flows = nil
	sc.sorter.less = nil
}

// refFlowSorter is refScratch's reusable sort.Interface over []*FlowState.
type refFlowSorter struct {
	flows []*FlowState
	less  func(a, b *FlowState) bool
}

func (s *refFlowSorter) Len() int           { return len(s.flows) }
func (s *refFlowSorter) Swap(i, j int)      { s.flows[i], s.flows[j] = s.flows[j], s.flows[i] }
func (s *refFlowSorter) Less(i, j int) bool { return s.less(s.flows[i], s.flows[j]) }

// frozenFor returns a cleared n-element flag slice.
func (sc *refScratch) frozenFor(n int) []bool {
	if cap(sc.frozen) < n {
		sc.frozen = make([]bool, n)
	}
	f := sc.frozen[:n]
	for i := range f {
		f[i] = false
	}
	return f
}

// refPDQ is the reference flow-level PDQ allocator.
type refPDQ struct {
	Mode CritMode
	// AgingRate is the Fig. 12 α: a paused flow's expected transmission
	// time is scaled by 2^(−α·t) with t its waiting time in units of
	// 100 ms, preventing starvation. 0 disables aging.
	AgingRate float64
	rng       *rand.Rand
	sc        refScratch
	lessFn    func(a, b *FlowState) bool // pre-bound p.less
}

// newRefPDQ returns a refPDQ allocator with deterministic randomness (used only
// by CritRandom).
func newRefPDQ(mode CritMode, seed int64) *refPDQ {
	p := &refPDQ{Mode: mode, rng: rand.New(rand.NewSource(seed))}
	p.lessFn = p.less
	return p
}

// ensureLess binds the criticality comparator for a refPDQ built as a
// literal rather than via newRefPDQ. Binding a method value allocates, so
// it happens once here — outside the allocation loop.
func (p *refPDQ) ensureLess() {
	if p.lessFn == nil {
		p.lessFn = p.less
	}
}

// Allocate implements Allocator: sort by criticality, then grant each flow
// min(NIC rate, residual capacity along its path), in order (§3).
func (p *refPDQ) Allocate(now sim.Time, flows []*FlowState, cap func(*netsim.Link) float64) {
	for _, f := range flows {
		switch p.Mode {
		case CritRandom:
			if f.crit == 0 {
				f.crit = p.rng.Float64() + 1e-9
			}
		case CritEstimate:
			sent := float64(f.Size) - f.Remaining
			f.crit = math.Floor(sent/float64(50<<10)) + 1
		}
	}
	p.ensureLess()
	sc := &p.sc
	sc.begin()
	ordered := sc.orderedCopy(flows)
	sc.sortOrdered(p.lessFn)
	for _, f := range ordered {
		rate := float64(refMinNIC(f))
		for _, l := range f.Path {
			// slot() may grow and reassign sc.residual, so it must be
			// called before the slice is indexed (the evaluation order of
			// sc.residual[sc.slot(...)] is unspecified across the grow).
			id := sc.slot(l, cap)
			if r := sc.residual[id]; r < rate {
				rate = r
			}
		}
		if rate < 0 {
			rate = 0
		}
		f.Rate = rate
		for _, l := range f.Path {
			id := sc.slot(l, cap)
			sc.residual[id] -= rate
		}
	}
}

func (p *refPDQ) less(a, b *FlowState) bool {
	if p.Mode != CritPerfect {
		if a.crit != b.crit {
			return a.crit < b.crit
		}
		return a.ID < b.ID
	}
	da, db := a.AbsDeadline(), b.AbsDeadline()
	if da != db {
		return da < db
	}
	ta := p.aged(a)
	tb := p.aged(b)
	if ta != tb {
		return ta < tb
	}
	return a.ID < b.ID
}

// aged is the expected transmission time, reduced by the aging factor
// 2^(α·t) for flows that have waited t (in 100 ms units), per Fig. 12.
func (p *refPDQ) aged(f *FlowState) float64 {
	t := f.Remaining
	if p.AgingRate > 0 {
		t /= math.Pow(2, p.AgingRate*float64(f.Waiting)/float64(100*sim.Millisecond))
	}
	return t
}

func refMinNIC(f *FlowState) int64 {
	// The sender NIC is the first path link; the receiver NIC the last.
	r := f.Path[0].Rate
	if last := f.Path[len(f.Path)-1].Rate; last < r {
		r = last
	}
	return r
}

// ---------------------------------------------------------------------------
// refRCP allocator: max-min fairness.

// refRCP is the reference flow-level fair-sharing allocator (refRCP; also refD3 with no
// deadlines, §5.1). Create instances with newRefRCP: the allocator reuses
// dense per-link refScratch across steps.
type refRCP struct {
	sc refScratch
}

// newRefRCP returns an refRCP allocator.
func newRefRCP() *refRCP { return &refRCP{} }

// Allocate implements Allocator by progressive filling (max-min fairness),
// respecting NIC limits.
func (p *refRCP) Allocate(now sim.Time, flows []*FlowState, cap func(*netsim.Link) float64) {
	sc := &p.sc
	sc.begin()
	for _, f := range flows {
		for _, l := range f.Path {
			// Hoisted: slot() may grow and reassign sc.count.
			id := sc.slot(l, cap)
			sc.count[id]++
		}
		f.Rate = 0
	}
	frozen := sc.frozenFor(len(flows))
	remaining := len(flows)
	for remaining > 0 {
		// Smallest per-flow share over all links, and the NIC floor.
		share := math.Inf(1)
		for _, l := range sc.touched {
			n := sc.count[l.ID]
			if n == 0 {
				continue
			}
			if s := sc.residual[l.ID] / float64(n); s < share {
				share = s
			}
		}
		if math.IsInf(share, 1) {
			break
		}
		// Freeze flows limited by their NIC below the share, else flows
		// on the bottleneck links.
		progressed := false
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			nic := float64(refMinNIC(f))
			limit := nic - f.Rate // how much more the NIC allows
			grant := share
			if limit <= grant+1e-9 {
				grant = limit
			}
			f.Rate += grant
			for _, l := range f.Path {
				sc.residual[l.ID] -= grant
			}
			if grant < share-1e-9 { // NIC-limited: done
				frozen[i] = true
				remaining--
				for _, l := range f.Path {
					sc.count[l.ID]--
				}
				progressed = true
			}
		}
		// Freeze flows on exhausted links.
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			for _, l := range f.Path {
				if sc.residual[l.ID] <= 1e-6*cap(l) {
					frozen[i] = true
					remaining--
					for _, g := range f.Path {
						sc.count[g.ID]--
					}
					progressed = true
					break
				}
			}
		}
		if !progressed {
			break
		}
	}
}

// ---------------------------------------------------------------------------
// refD3 allocator.

// refD3 is the reference flow-level D3 allocator: deadline flows reserve r = s/d in
// arrival order, then the leftover is shared max-min fairly. Create
// instances with newRefD3: the allocator reuses dense per-link refScratch across
// steps.
type refD3 struct {
	sc refScratch
}

// newRefD3 returns a refD3 allocator.
func newRefD3() *refD3 { return &refD3{} }

// refArrivalLess orders flows first-come first-reserve (ties by ID).
func refArrivalLess(a, b *FlowState) bool {
	if a.Start != b.Start {
		return a.Start < b.Start
	}
	return a.ID < b.ID
}

// Allocate implements Allocator.
func (p *refD3) Allocate(now sim.Time, flows []*FlowState, cap func(*netsim.Link) float64) {
	sc := &p.sc
	sc.begin()
	for _, f := range flows {
		for _, l := range f.Path {
			sc.slot(l, cap)
		}
		f.Rate = 0
	}
	// Pass 1: reservations in arrival order (first-come first-reserve).
	ordered := sc.orderedCopy(flows)
	sc.sortOrdered(refArrivalLess)
	for _, f := range ordered {
		dl := f.AbsDeadline()
		if dl == sim.MaxTime {
			continue // no deadline, or one at the end of time: s/∞ reserves nothing
		}
		left := dl - now
		if left <= 0 {
			continue
		}
		want := f.Remaining * 8 / left.Seconds() / goodput
		if nic := float64(refMinNIC(f)); want > nic {
			want = nic
		}
		grant := want
		for _, l := range f.Path {
			if r := sc.residual[l.ID]; r < grant {
				grant = r
			}
		}
		if grant < 0 {
			grant = 0
		}
		f.Rate = grant
		for _, l := range f.Path {
			sc.residual[l.ID] -= grant
		}
	}
	// Pass 2: fair share of the leftover — each flow gets the minimum
	// over its path of residual/(flows still to be served on the link),
	// the per-link equal split refD3 computes as fs. Counts shrink as flows
	// take their share so the split is equal, not geometric.
	for _, f := range flows {
		for _, l := range f.Path {
			sc.count[l.ID]++
		}
	}
	for _, f := range ordered {
		grant := math.Inf(1)
		for _, l := range f.Path {
			if share := sc.residual[l.ID] / float64(sc.count[l.ID]); share < grant {
				grant = share
			}
		}
		if nic := float64(refMinNIC(f)); f.Rate+grant > nic {
			grant = nic - f.Rate
		}
		if grant < 0 || math.IsInf(grant, 1) {
			grant = 0
		}
		f.Rate += grant
		for _, l := range f.Path {
			sc.residual[l.ID] -= grant
			sc.count[l.ID]--
		}
	}
}
