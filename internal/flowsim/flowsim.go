// Package flowsim is the flow-level simulator of §5.5: packet dynamics are
// abstracted away and equilibrium flow rates are recomputed on a 1 ms time
// scale, which lets the large-scale experiments (Fig. 8, Fig. 10, Fig. 12)
// run on topologies the packet-level simulator cannot reach in reasonable
// time. Like the paper's flow-level simulator it models protocol
// inefficiencies — flow initialization latency and packet-header overhead
// — but not timeouts or packet loss.
//
// Allocators implement the per-step equilibrium:
//
//   - PDQ: the §3 centralized algorithm — criticality-ordered waterfilling
//     with optional Early Termination, inaccurate-criticality modes
//     (Fig. 10), and flow aging (Fig. 12);
//   - RCP: max-min fair sharing (also D3's behavior without deadlines);
//   - D3: arrival-order greedy reservation plus fair share of the rest.
//
// A run makes a few hundred Allocate calls whose flow sets differ by a
// completion or an arrival, so the allocators are built to cost what
// changed rather than what exists: PDQ and D3 keep their service order
// between calls and repair it, RCP's water-filling walks only the flows
// and links not yet frozen, and per-flow constants are derived once per
// call. None of it moves a bit of any rate: alloc_ref_test.go holds the
// plain full-recompute allocators, and the differential and fuzz tests
// compare every rate's float64 bits against them (DESIGN.md §4).
package flowsim

import (
	"cmp"
	"math"
	"math/rand"
	"slices"

	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// goodput is the fraction of wire rate available to payload after TCP/IP
// and scheduling headers (~3% loss, §5.4).
const goodput = float64(netsim.MSS) / float64(netsim.MTU)

// InitLatency is the flow initialization cost: one RTT for the SYN
// handshake plus one RTT for the first data round trip (§5.4).
const InitLatency = 300 * sim.Microsecond

// FlowState is one flow during a flow-level run. The exported fields are
// the model's state and a literal-built FlowState is valid input to an
// allocator; flow IDs must be unique within one Allocate call.
type FlowState struct {
	workload.Flow
	Path      []*netsim.Link
	Remaining float64 // payload bytes left
	Rate      float64 // bits/s, set by the allocator each step
	Started   sim.Time
	Waiting   sim.Time // cumulative paused time (for aging)
	crit      float64  // cached criticality for inaccurate modes
	sending   bool     // had a positive rate; a drop back to 0 is a preemption
	mark      uint32   // membership stamp of the order list that saw the flow last (order.sync); in sending's padding
}

// nicFloor is the rate a flow's own NICs cap it at, in bits/s: the sender
// NIC is the first path link, the receiver NIC the last. Allocators derive
// it per call, where they walk the path anyway, and not per round or per
// comparison; nothing is cached across calls, so a Path replaced between
// two calls (failover) needs no invalidation.
func nicFloor(path []*netsim.Link) float64 {
	r := path[0].Rate
	if last := path[len(path)-1].Rate; last < r {
		r = last
	}
	return float64(r)
}

// Allocator assigns Rate to every active flow given per-link capacities.
// Allocators carry reusable scratch and, PDQ and D3, the service order of
// the flows they were last called with, so one instance belongs to one
// Sim and must not be shared across concurrent simulations.
type Allocator interface {
	Name() string
	// Allocate sets f.Rate for every flow; cap maps each link to its
	// capacity in bits/s and must not be mutated.
	Allocate(now sim.Time, flows []*FlowState, cap func(*netsim.Link) float64)
}

// linkSlot is one link's state during an allocation round. The fields an
// allocator reads together sit together: links are visited in path order,
// which is random in ID order, so a round costs one cache line per link
// rather than one per field.
type linkSlot struct {
	residual float64 // remaining capacity, bits/s
	floor    float64 // 1e-6 of the capacity: at or below it the link is exhausted (RCP)
	count    int32   // flows still to be served on the link (RCP, D3)
	stamp    uint32  // == scratch.epoch ⇒ the slot is live this round
}

// scratch is the dense per-link workspace an allocator reuses across
// calls: links carry dense IDs, so per-link state lives in a flat slice
// indexed by Link.ID instead of a per-step map. Slots are lazily opened
// per round via an epoch stamp — no clearing, no rehashing, no
// steady-state allocation (DESIGN.md §4).
type scratch struct {
	epoch   uint32
	slots   []linkSlot
	touched []int32      // IDs of the links opened this round, in touch order
	live    []liveFlow   // RCP: flows not yet frozen, in the caller's order
	flows   []*FlowState // the round's flows, for fit
}

// liveFlow is a flow RCP's water-filling has not frozen yet, with its NIC
// floor beside it: derived once per call, read once per round.
type liveFlow struct {
	f   *FlowState
	nic float64
}

// begin opens a new allocation round over flows, invalidating every slot.
func (sc *scratch) begin(flows []*FlowState) {
	sc.flows = flows
	sc.touched = sc.touched[:0]
	sc.epoch++
	if sc.epoch == 0 { // wrapped: stamps from 2³² rounds ago could collide
		for i := range sc.slots {
			sc.slots[i].stamp = 0
		}
		sc.epoch = 1
	}
}

// slot returns l's slot, opening it on the first touch of the round:
// residual from capFn, count zero. The pointer is good until the next
// slot call, which may grow the slice.
func (sc *scratch) slot(l *netsim.Link, capFn func(*netsim.Link) float64) *linkSlot {
	if l.ID >= len(sc.slots) {
		sc.fit()
	}
	s := &sc.slots[l.ID]
	if s.stamp != sc.epoch {
		c := capFn(l)
		*s = linkSlot{residual: c, floor: 1e-6 * c, stamp: sc.epoch}
		sc.touched = append(sc.touched, int32(l.ID))
	}
	return s
}

// fit sizes the slots for every link of the round's flows in one
// allocation: a run builds a fresh allocator per cell, and doubling up from
// nothing would allocate twice what the round needs. Later rounds that
// reach a higher link ID grow by at least a quarter so that a run of
// ever-higher IDs stays linear.
func (sc *scratch) fit() {
	n := len(sc.slots) + len(sc.slots)/4
	for _, f := range sc.flows {
		for _, l := range f.Path {
			if l.ID >= n {
				n = l.ID + 1
			}
		}
	}
	sc.slots = append(make([]linkSlot, 0, n), sc.slots...)[:n]
	sc.touched = append(make([]int32, 0, n), sc.touched...) // a round opens a link once
}

// ordEnt is one flow in an allocator's kept service order, its sort key
// beside it so that ordering reads contiguous memory, not the flows.
type ordEnt struct {
	major sim.Time // PDQ: absolute deadline (0 in the inaccurate modes); D3: arrival time
	minor float64  // PDQ: aged remaining size, or the cached criticality; D3: 0
	f     *FlowState
}

// before is the strict total order on entries with distinct flow IDs.
func (a *ordEnt) before(b *ordEnt) bool {
	if a.major != b.major {
		return a.major < b.major
	}
	if a.minor != b.minor {
		return a.minor < b.minor
	}
	return a.f.ID < b.f.ID
}

func cmpEnt(a, b ordEnt) int {
	if a.before(&b) {
		return -1
	}
	if b.before(&a) {
		return 1
	}
	return 0
}

// order is the service order an allocator keeps between calls. One
// completion or arrival changes one entry and moves few, so the list is
// synced to the caller's flow set and repaired rather than rebuilt and
// re-sorted; since (major, minor, ID) with unique IDs is a strict total
// order, the repaired list is the one a stable sort of the caller's slice
// yields, whatever the algorithm (DESIGN.md §4).
type order struct {
	ents []ordEnt
	// epoch stamps membership on FlowState.mark: even while a sync is
	// telling listed from arrived flows, epoch+1 (odd) on every flow it
	// leaves behind. Marks at rest are therefore odd and never equal a
	// later sync's even epoch — not this list's after the counter wraps,
	// and not that of another allocator handed the same FlowStates. Only a
	// fresh FlowState's zero mark can equal an epoch, 0, once in 2³¹ calls,
	// where it reads as a duplicate and costs a rebuild.
	epoch uint32
}

// sync makes ents hold exactly flows: entries whose flow left are dropped
// in place, flows not yet listed are appended in the caller's order. Keys
// are the caller's to fill. A slice that names one flow twice cannot be
// told from the list by marks, so it rebuilds the list from scratch.
func (o *order) sync(flows []*FlowState) {
	o.epoch += 2
	seen, listed := o.epoch, o.epoch+1
	dup := false
	for _, f := range flows {
		if f.mark == seen {
			dup = true
		}
		f.mark = seen
	}
	old := o.ents
	kept := old[:0]
	if !dup {
		for _, e := range old {
			if e.f.mark == seen {
				e.f.mark = listed
				kept = append(kept, e)
			}
		}
	}
	for _, f := range flows {
		if f.mark == seen || dup {
			f.mark = listed
			kept = append(kept, ordEnt{f: f})
		}
	}
	o.ents = kept
}

// sort restores ascending order. The list is near-sorted by construction
// — under PDQ sending flows only move toward the front and paused flows
// age by a common factor, under D3 keys never change and arrivals come in
// key order — so an insertion pass costs O(n + inversions); when a call
// brings many unordered entries (the first one, a criticality reset) the
// pass gives up after 8n moves and sorts.
func (o *order) sort() {
	ents := o.ents
	budget := 8 * len(ents)
	for i := 1; i < len(ents); i++ {
		if !ents[i].before(&ents[i-1]) {
			continue
		}
		e := ents[i]
		ents[i] = ents[i-1]
		j := i - 1
		for ; j > 0 && e.before(&ents[j-1]); j-- {
			ents[j] = ents[j-1]
		}
		ents[j] = e
		if budget -= i - j; budget < 0 {
			slices.SortFunc(ents, cmpEnt)
			return
		}
	}
}

// Hook is a scheduled environment mutation — fault injection at the fluid
// level: Fn runs at the first step boundary at or after At, before that
// step's allocation, so a capacity change is visible to the very next
// equilibrium computation.
type Hook struct {
	At sim.Time
	Fn func(*Sim)
}

// Sim runs a flow-level simulation over a topology.
type Sim struct {
	Topo  *topo.Topology
	Alloc Allocator
	Step  sim.Duration // default 1 ms

	// ET enables PDQ-style Early Termination of hopeless deadline flows.
	ET bool

	Collector *workload.Collector
	slab      []FlowState  // Start carves flow states from chunks of slabSize
	pending   []*FlowState // sorted by Start; admitted entries are nil
	next      int          // cursor into pending: first un-admitted flow
	active    []*FlowState
	now       sim.Time

	hooks    []Hook // sorted by At once AddHook settles; see ApplyFaults
	nextHook int

	halted bool
}

// New creates a flow-level simulation.
func New(t *topo.Topology, alloc Allocator) *Sim {
	return &Sim{Topo: t, Alloc: alloc, Step: sim.Millisecond, Collector: workload.NewCollector()}
}

// slabSize is the most flow states one allocation holds: 68 of 120 bytes
// fill the 8 KiB size class. Chunks start at 8 and grow to it (8, 24, 56,
// 68, …), so the many few-flow cells of a sweep do not pay for a large
// one; a chunk lives until its last flow is done, so it stays small next
// to a big run's flow count.
const slabSize = 68

// Start registers a flow.
func (s *Sim) Start(f workload.Flow) {
	s.Collector.Register(f)
	if len(s.slab) == cap(s.slab) {
		s.slab = make([]FlowState, 0, min(slabSize, 2*cap(s.slab)+8))
	}
	s.slab = append(s.slab, FlowState{
		Flow:      f,
		Path:      s.Topo.Path(s.Topo.Hosts[f.Src], s.Topo.Hosts[f.Dst]),
		Remaining: float64(f.Size),
		Started:   f.Start + InitLatency,
	})
	s.pending = append(s.pending, &s.slab[len(s.slab)-1])
}

func byStart(a, b *FlowState) int { return cmp.Compare(a.Start, b.Start) }

// Run advances the simulation to the horizon, until all flows finish, or
// until Halt is called.
func (s *Sim) Run(horizon sim.Time) {
	slices.SortStableFunc(s.pending[s.next:], byStart)
	s.halted = false
	for !s.halted && s.now < horizon && (s.next < len(s.pending) || len(s.active) > 0) {
		s.step()
	}
}

// Halt stops the executing Run once the step in progress is complete —
// the event engine's Halt (sim.Sim), at this simulator's granularity.
// Callers reach it from inside a step, through the collector's watcher.
func (s *Sim) Halt() { s.halted = true }

// AddHook schedules an environment mutation. All hooks must be added
// before the first Run call; they execute in At order (ties in insertion
// order), each exactly once.
func (s *Sim) AddHook(at sim.Time, fn func(*Sim)) {
	s.hooks = append(s.hooks, Hook{At: at, Fn: fn})
	// Keep the slice sorted by At (stable): hooks are few, insertion sort
	// at append time keeps step()'s cursor scan trivial.
	for i := len(s.hooks) - 1; i > 0 && s.hooks[i].At < s.hooks[i-1].At; i-- {
		s.hooks[i], s.hooks[i-1] = s.hooks[i-1], s.hooks[i]
	}
}

// Results returns a snapshot of flow outcomes.
func (s *Sim) Results() []workload.Result { return s.Collector.Results() }

// FlowCollector exposes the collector for telemetry attachment.
func (s *Sim) FlowCollector() *workload.Collector { return s.Collector }

// step advances the fluid simulation by one allocation interval.
//
//pdq:hotpath
func (s *Sim) step() {
	next := s.now + s.Step
	// Fire environment hooks due before this step's allocation. During an
	// idle fast-skip the clock may jump past several hook times at once;
	// those hooks fire at the top of the following step, still before any
	// flow is allocated capacity.
	for s.nextHook < len(s.hooks) && s.hooks[s.nextHook].At < next {
		h := s.hooks[s.nextHook]
		s.nextHook++
		h.Fn(s)
	}
	// Admit flows whose init completes within this step. The cursor (with
	// admitted slots nilled out) lets long-running sims release admitted
	// flows to the GC; re-slicing the queue instead would pin the whole
	// backing array for the run.
	for s.next < len(s.pending) && s.pending[s.next].Started < next {
		s.active = append(s.active, s.pending[s.next])
		s.pending[s.next] = nil
		s.next++
	}
	if len(s.active) == 0 {
		if s.next < len(s.pending) && s.pending[s.next].Started > next {
			first := s.pending[s.next].Started
			next = first - (first % s.Step)
			if next <= s.now {
				next = s.now + s.Step
			}
		}
		s.now = next
		return
	}

	// Early Termination (PDQ) / quenching: drop hopeless deadline flows.
	if s.ET {
		kept := s.active[:0]
		for _, f := range s.active {
			if f.HasDeadline() {
				nic := float64(s.Topo.Hosts[f.Src].NICRate()) * goodput
				need := sim.Time(f.Remaining * 8 / nic * float64(sim.Second))
				if s.now+need > f.AbsDeadline() {
					s.Collector.SetBytesAcked(f.ID, f.Size-int64(f.Remaining))
					s.Collector.Terminate(f.ID, s.now)
					continue
				}
			}
			kept = append(kept, f)
		}
		s.active = kept
	}

	// Within the step, rates are re-evaluated whenever a flow completes,
	// so capacity freed mid-step is immediately reused — the fluid
	// equivalent of the paper's "iterative approach to find the
	// equilibrium flow sending rates" at a 1 ms time scale.
	t := s.now
	for t < next && len(s.active) > 0 {
		s.Alloc.Allocate(t, s.active, linkCap)
		for _, f := range s.active {
			if f.Rate > 0 {
				f.sending = true
			} else if f.sending {
				f.sending = false
				s.Collector.AddPreemption(f.ID)
			}
		}
		// Earliest completion at the current rates, capped by step end.
		dt := next - t
		for _, f := range s.active {
			if f.Rate > 0 {
				need := sim.Time(f.Remaining * 8 / (f.Rate * goodput) * float64(sim.Second))
				if need < dt {
					dt = need
				}
			}
		}
		if dt < 1 {
			dt = 1 // guarantee progress against rounding
		}
		secs := float64(dt) / float64(sim.Second)
		kept := s.active[:0]
		for _, f := range s.active {
			if f.Rate <= 0 {
				f.Waiting += dt
				kept = append(kept, f)
				continue
			}
			f.Remaining -= f.Rate * goodput * secs / 8
			if f.Remaining < 0.5 { // sub-byte residue = done
				s.Collector.Finish(f.ID, t+dt)
				continue
			}
			kept = append(kept, f)
		}
		s.active = kept
		t += dt
	}
	s.now = next
}

// linkCap is the capacity function handed to allocators: a link's full
// rate, or zero while fault injection has it down — the fluid analog of
// every packet on the link being lost.
func linkCap(l *netsim.Link) float64 {
	if l.Down() {
		return 0
	}
	return float64(l.Rate)
}

// ---------------------------------------------------------------------------
// PDQ allocator (§3 centralized algorithm).

// CritMode selects how PDQ ranks flows (Fig. 10).
type CritMode int

// Criticality modes.
const (
	// CritPerfect uses true deadlines and remaining sizes (EDF → SRPT).
	CritPerfect CritMode = iota
	// CritRandom assigns each flow a random fixed criticality at start.
	CritRandom
	// CritEstimate estimates flow size from bytes sent so far, updated
	// every 50 KB (§5.6): flows that have sent less rank higher.
	CritEstimate
)

// PDQ is the flow-level PDQ allocator. It keeps the criticality order of
// the flows it saw last between calls, so one instance serves one flow set
// at a time.
type PDQ struct {
	Mode CritMode
	// AgingRate is the Fig. 12 α: a paused flow's expected transmission
	// time is scaled by 2^(−α·t) with t its waiting time in units of
	// 100 ms, preventing starvation. 0 disables aging.
	AgingRate float64
	rng       *rand.Rand
	sc        scratch
	ord       order
}

// NewPDQ returns a PDQ allocator with deterministic randomness (used only
// by CritRandom).
func NewPDQ(mode CritMode, seed int64) *PDQ {
	return &PDQ{Mode: mode, rng: rand.New(rand.NewSource(seed))}
}

// Name implements Allocator.
func (p *PDQ) Name() string { return "PDQ" }

// Allocate implements Allocator: order by criticality, then grant each flow
// min(NIC rate, residual capacity along its path), in order (§3).
//
//pdq:hotpath
func (p *PDQ) Allocate(now sim.Time, flows []*FlowState, cap func(*netsim.Link) float64) {
	// Criticalities are drawn and re-estimated in the caller's order: the
	// random mode's stream must not depend on the kept order.
	switch p.Mode {
	case CritRandom:
		for _, f := range flows {
			if f.crit == 0 {
				f.crit = p.rng.Float64() + 1e-9
			}
		}
	case CritEstimate:
		for _, f := range flows {
			sent := float64(f.Size) - f.Remaining
			f.crit = math.Floor(sent/float64(50<<10)) + 1
		}
	}
	// One key per flow per call — EDF, then SRPT on the aged remaining
	// size; or the cached criticality alone — and a repair of the order.
	p.ord.sync(flows)
	ents := p.ord.ents
	if p.Mode == CritPerfect {
		for i := range ents {
			f := ents[i].f
			ents[i].major, ents[i].minor = f.AbsDeadline(), p.aged(f)
		}
	} else {
		for i := range ents {
			ents[i].major, ents[i].minor = 0, ents[i].f.crit
		}
	}
	p.ord.sort()

	sc := &p.sc
	sc.begin(flows)
	for i := range ents {
		f := ents[i].f
		rate := nicFloor(f.Path)
		for _, l := range f.Path {
			if r := sc.slot(l, cap).residual; r < rate {
				rate = r
			}
		}
		if rate < 0 {
			rate = 0
		}
		f.Rate = rate
		for _, l := range f.Path {
			sc.slots[l.ID].residual -= rate
		}
	}
}

// aged is the expected transmission time, reduced by the aging factor
// 2^(α·t) for flows that have waited t (in 100 ms units), per Fig. 12.
func (p *PDQ) aged(f *FlowState) float64 {
	t := f.Remaining
	if p.AgingRate > 0 {
		t /= math.Pow(2, p.AgingRate*float64(f.Waiting)/float64(100*sim.Millisecond))
	}
	return t
}

// ---------------------------------------------------------------------------
// RCP allocator: max-min fairness.

// RCP is the flow-level fair-sharing allocator (RCP; also D3 with no
// deadlines, §5.1). Create instances with NewRCP: the allocator reuses
// dense per-link scratch across steps.
type RCP struct {
	sc scratch
}

// NewRCP returns an RCP allocator.
func NewRCP() *RCP { return &RCP{} }

// Name implements Allocator.
func (*RCP) Name() string { return "RCP" }

// Allocate implements Allocator by progressive filling (max-min fairness),
// respecting NIC limits. Each round grants every unfrozen flow the
// smallest per-flow share any link offers and freezes the flows that hit
// their NIC floor or an exhausted link. The round walks only what is still
// unfrozen — flows and links leave their lists as they freeze, keeping
// their relative order, so every subtraction happens in the sequence a
// walk over all flows would make it and every sum has the same bits. A
// rate is a sum of globally chosen shares, which is why the filling is not
// restricted to the links a completion touched: that would reorder the
// additions (DESIGN.md §4).
//
//pdq:hotpath
func (p *RCP) Allocate(now sim.Time, flows []*FlowState, cap func(*netsim.Link) float64) {
	sc := &p.sc
	sc.begin(flows)
	live := sc.live[:0]
	for _, f := range flows {
		for _, l := range f.Path {
			sc.slot(l, cap).count++
		}
		f.Rate = 0
		live = append(live, liveFlow{f, nicFloor(f.Path)})
	}
	sc.live = live
	slots := sc.slots
	links := sc.touched
	for len(live) > 0 {
		// Smallest per-flow share over the links that still carry an
		// unfrozen flow.
		share := math.Inf(1)
		n := 0
		for _, id := range links {
			s := &slots[id]
			if s.count == 0 {
				continue
			}
			links[n] = id
			n++
			if v := s.residual / float64(s.count); v < share {
				share = v
			}
		}
		links = links[:n]
		if math.IsInf(share, 1) {
			break
		}
		// Grant the share; a flow its NIC limits below the share is done.
		before := len(live)
		n = 0
		for _, lf := range live {
			f := lf.f
			limit := lf.nic - f.Rate // how much more the NIC allows
			grant := share
			if limit <= grant+1e-9 {
				grant = limit
			}
			f.Rate += grant
			for _, l := range f.Path {
				slots[l.ID].residual -= grant
			}
			if grant < share-1e-9 {
				unlist(slots, f.Path)
				continue
			}
			live[n] = lf
			n++
		}
		live = live[:n]
		// Freeze flows on exhausted links.
		n = 0
		for _, lf := range live {
			if onExhausted(slots, lf.f.Path) {
				unlist(slots, lf.f.Path)
				continue
			}
			live[n] = lf
			n++
		}
		live = live[:n]
		if n == before {
			break // no flow froze: nothing left to hand out
		}
	}
}

// unlist takes a flow that froze off the counts of its links.
func unlist(slots []linkSlot, path []*netsim.Link) {
	for _, l := range path {
		slots[l.ID].count--
	}
}

// onExhausted reports whether path crosses a link with (almost) no
// capacity left.
func onExhausted(slots []linkSlot, path []*netsim.Link) bool {
	for _, l := range path {
		if s := &slots[l.ID]; s.residual <= s.floor {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// D3 allocator.

// D3 is the flow-level D3 allocator: deadline flows reserve r = s/d in
// arrival order, then the leftover is shared max-min fairly. It keeps the
// arrival order of the flows it saw last between calls, so one instance
// serves one flow set at a time.
type D3 struct {
	sc  scratch
	ord order
}

// NewD3 returns a D3 allocator.
func NewD3() *D3 { return &D3{} }

// Name implements Allocator.
func (*D3) Name() string { return "D3" }

// Allocate implements Allocator.
//
//pdq:hotpath
func (p *D3) Allocate(now sim.Time, flows []*FlowState, cap func(*netsim.Link) float64) {
	sc := &p.sc
	sc.begin(flows)
	for _, f := range flows {
		for _, l := range f.Path {
			sc.slot(l, cap).count++ // pass 2's flows still to be served
		}
		f.Rate = 0
	}
	slots := sc.slots
	// First-come first-reserve: arrival time, ties by ID. The caller admits
	// flows in that order, so the kept list is almost always sorted as is.
	p.ord.sync(flows)
	ents := p.ord.ents
	for i := range ents {
		ents[i].major = ents[i].f.Start
	}
	p.ord.sort()
	// Pass 1: reservations in arrival order.
	for i := range ents {
		f := ents[i].f
		if !f.HasDeadline() {
			continue
		}
		left := f.AbsDeadline() - now
		if left <= 0 {
			continue
		}
		want := f.Remaining * 8 / left.Seconds() / goodput
		if nic := nicFloor(f.Path); want > nic {
			want = nic
		}
		grant := want
		for _, l := range f.Path {
			if r := slots[l.ID].residual; r < grant {
				grant = r
			}
		}
		if grant < 0 {
			grant = 0
		}
		f.Rate = grant
		for _, l := range f.Path {
			slots[l.ID].residual -= grant
		}
	}
	// Pass 2: fair share of the leftover — each flow gets the minimum
	// over its path of residual/(flows still to be served on the link),
	// the per-link equal split D3 computes as fs. Counts shrink as flows
	// take their share so the split is equal, not geometric.
	for i := range ents {
		f := ents[i].f
		grant := math.Inf(1)
		for _, l := range f.Path {
			s := &slots[l.ID]
			if share := s.residual / float64(s.count); share < grant {
				grant = share
			}
		}
		if nic := nicFloor(f.Path); f.Rate+grant > nic {
			grant = nic - f.Rate
		}
		if grant < 0 || math.IsInf(grant, 1) {
			grant = 0
		}
		f.Rate += grant
		for _, l := range f.Path {
			s := &slots[l.ID]
			s.residual -= grant
			s.count--
		}
	}
}
