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
// changed rather than what exists. PDQ and D3 keep their service order
// between calls and repair it, and keep one ledger (ledger.go): each
// link's flows in service order, and what each flow saw on each link. A
// call recomputes only the flows a departure, an arrival, a reordering, a
// new capacity or a changed grant reaches, reading what the others saw
// last call, and walks every flow from the capacities on a first call, a
// reorder too large to repair, and while D3 reserves for deadlines. RCP
// fills by water level and keeps its own ledger (rcp.go): each link's
// freezes in order with the residual after each, and the rounds. A call
// after departures replays the logged rounds and rewrites only the links
// a departure or a moved freeze reaches, handing the rest to a scanning
// fill where that is cheaper; a first call, an arrival, a replaced Path
// or a moved capacity fills from level 0. Every allocator keeps its
// per-link state for the links in use. alloc_ref_test.go holds the plain
// full-recompute allocators; the differential and fuzz tests compare
// every PDQ and D3 rate bit for bit against them and against allocators
// rebuilt on every call, every RCP rate to a relative 1e-12, since a level
// rounds differently from the reference's sum of shares, and every RCP
// rate bit for bit against an RCP rebuilt on every call (DESIGN.md §4).
package flowsim

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync/atomic"

	"pdq/internal/carve"
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

// stepLen is the allocation interval: equilibrium rates are recomputed on
// the paper's 1 ms time scale (§5.5).
const stepLen = sim.Millisecond

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
// NIC is the first path link, the receiver NIC the last. Every allocator
// keeps it with the flow's link IDs until a call finds the flow's Path
// replaced (failover).
func nicFloor(path []*netsim.Link) float64 {
	r := path[0].Rate
	if last := path[len(path)-1].Rate; last < r {
		r = last
	}
	return float64(r)
}

// Allocator assigns Rate to every active flow given per-link capacities.
// Allocators carry reusable scratch and what they derived for the flows
// they were last called with, PDQ and D3 the service order and ledger and
// RCP its rounds and ledger, so one instance belongs to one Sim and must
// not be shared across concurrent simulations.
type Allocator interface {
	// Allocate sets f.Rate for every flow; cap maps each link to its
	// capacity in bits/s and must not be mutated.
	Allocate(now sim.Time, flows []*FlowState, cap func(*netsim.Link) float64)
}

// stepAllocator is how Sim calls the package's allocators, saying what
// may have changed since the last call. Allocate is allocate with
// anyChange.
type stepAllocator interface {
	allocate(now sim.Time, flows []*FlowState, cap capFn, c change)
}

// change is what may have changed between two calls of one allocator
// besides the flows themselves.
type change uint8

const (
	// unchanged: a Sim's call between hooks. No capacity and no Path
	// moved, and every Rate is the one the allocator set, so it reads
	// capacities only for links it has not seen and sets only the rates
	// it recomputes.
	unchanged change = iota
	// hooked: a Sim's call after a hook ran: capacities and Paths may
	// have moved.
	hooked
	// anyChange: a call of Allocate. Capacities and Paths may have moved,
	// and other allocators may have set the Rates of the same FlowStates.
	anyChange
)

// ordEnt is one flow in an allocator's kept service order, its sort key
// beside it so that ordering reads contiguous memory, not the flows.
type ordEnt struct {
	major sim.Time // PDQ: absolute deadline (0 in the inaccurate modes); D3: arrival time
	minor float64  // PDQ: aged remaining size, or the cached criticality; D3: 0
	f     *FlowState
	rec   int32 // the flow's record in the allocator's ledger
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
	gone  []int32 // the last sync's dropped entries' recs
	moved []int32 // the last sort's entries moved toward the front, by rec
}

// sync makes ents hold exactly flows: entries whose flow left are dropped
// in place, their recs kept in gone, and flows not yet listed are appended
// in the caller's order; it returns where the appended entries start. Keys
// and recs are the caller's to fill. A slice that names one flow twice
// cannot be told from the list by marks, so it drops every entry and lists
// the slice from scratch, and reports dup.
func (o *order) sync(flows []*FlowState) (kept int, dup bool) {
	o.epoch += 2
	seen, listed := o.epoch, o.epoch+1
	for _, f := range flows {
		if f.mark == seen {
			dup = true
		}
		f.mark = seen
	}
	old := o.ents
	ents := old[:0]
	o.gone = o.gone[:0]
	for _, e := range old {
		if e.f.mark == seen && !dup {
			e.f.mark = listed
			ents = append(ents, e)
		} else {
			o.gone = append(o.gone, e.rec)
		}
	}
	kept = len(ents)
	if kept < len(flows) { // arrivals: flows a pass over the list did not find
		ents = slices.Grow(ents, len(flows)-kept) // a batch arriving at once takes one allocation
		for _, f := range flows {
			if f.mark == seen || dup {
				f.mark = listed
				ents = append(ents, ordEnt{f: f})
			}
		}
	}
	o.ents = ents
	return kept, dup
}

// sort restores ascending order. The list is near-sorted by construction
// — under PDQ sending flows only move toward the front and paused flows
// age by a common factor, under D3 keys never change and arrivals come in
// key order — so an insertion pass costs O(n + inversions), and moved
// lists the recs of the entries it moved toward the front: every other
// pair kept its order. When a call brings many unordered entries (the
// first one, a criticality reset) the pass gives up after 8n moves, sorts,
// and returns false.
func (o *order) sort() bool {
	ents := o.ents
	o.moved = o.moved[:0]
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
		o.moved = append(o.moved, e.rec)
		if budget -= i - j; budget < 0 {
			slices.SortFunc(ents, cmpEnt)
			return false
		}
	}
	return true
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

	// ET enables PDQ-style Early Termination of hopeless deadline flows.
	ET bool

	Collector *workload.Collector
	states    *carve.Chunks[FlowState]  // what Start carves flow states from
	ptrs      *carve.Chunks[*FlowState] // what pending and active grow into
	pending   []*FlowState              // sorted by Start; admitted entries are nil
	next      int                       // cursor into pending: first un-admitted flow
	active    []*FlowState
	now       sim.Time

	hooks    []Hook // sorted by At once AddHook settles; see ApplyFaults
	nextHook int
	hooked   bool          // a hook ran, or nothing was allocated yet: capacities and paths may have changed
	fast     stepAllocator // Alloc, when it is one of the package's allocators; set by Run

	halted      bool
	interrupted atomic.Bool // set by Interrupt from any goroutine

	// check, when set, sees the active flows after every Allocate: tests
	// hang the model's invariants here (per-link capacity, NIC floors,
	// downed links). nil in production.
	check func([]*FlowState)
}

// New creates a flow-level simulation on t. Its flow states and collector
// cells are carved from t's network arena, so they are the run's, and the
// next run on the network, after its reset, carves them again. An
// allocator kept in that arena (carve.Keep, as the scenario runners keep
// one of each kind) is rewound with it at the reset, so it never names
// another network's flows.
func New(t *topo.Topology, alloc Allocator) *Sim {
	a := t.Net.Arena()
	return &Sim{Topo: t, Alloc: alloc, Collector: workload.NewCollectorIn(a),
		states: carve.Of[FlowState](a), ptrs: carve.Of[*FlowState](a), hooked: true}
}

// Start registers a flow. It refuses the flows the packet simulator
// refuses (workload.Flow.CheckStart).
func (s *Sim) Start(f workload.Flow) {
	f.CheckStart()
	s.Collector.Register(f)
	fs := s.states.New()
	*fs = FlowState{
		Flow:      f,
		Path:      s.Topo.Path(s.Topo.Hosts[f.Src], s.Topo.Hosts[f.Dst]),
		Remaining: float64(f.Size),
		Started:   f.Start + InitLatency,
	}
	s.pending = append(s.grow(s.pending), fs)
}

// grow returns ps with room for one more, carved from the run's arena, so
// that the runs on a reset network take the same room again.
func (s *Sim) grow(ps []*FlowState) []*FlowState {
	if len(ps) < cap(ps) {
		return ps
	}
	return append(s.ptrs.Take(2*len(ps) + 8)[:0], ps...)
}

func byStart(a, b *FlowState) int { return cmp.Compare(a.Start, b.Start) }

// Run advances the simulation to the horizon, until all flows finish, or
// until Halt is called. After Interrupt it panics with InterruptError.
func (s *Sim) Run(horizon sim.Time) {
	slices.SortStableFunc(s.pending[s.next:], byStart)
	s.fast, _ = s.Alloc.(stepAllocator)
	s.halted = false
	for steps := uint64(0); !s.halted && s.now < horizon && (s.next < len(s.pending) || len(s.active) > 0); steps++ {
		if s.interrupted.Load() {
			panic(InterruptError{Steps: steps, At: s.now})
		}
		s.step()
	}
}

// InterruptError is the panic value Run raises after Interrupt.
type InterruptError struct {
	Steps uint64   // steps this Run took before it saw the interrupt
	At    sim.Time // simulation time at that point
}

func (e InterruptError) Error() string {
	return fmt.Sprintf("flowsim: run interrupted after %d steps at t=%v", e.Steps, e.At)
}

// Interrupt makes the executing Run, or the next one, stop with a panic —
// the packet engine's Interrupt (sim.Sim), polled once per step. Unlike
// every other Sim method it is safe to call from another goroutine, such
// as a wall-clock watchdog's.
func (s *Sim) Interrupt() { s.interrupted.Store(true) }

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

// step advances the fluid simulation by one allocation interval.
func (s *Sim) step() {
	next := s.now + stepLen
	// Fire environment hooks due before this step's allocation. During an
	// idle fast-skip the clock may jump past several hook times at once;
	// those hooks fire at the top of the following step, still before any
	// flow is allocated capacity.
	for s.nextHook < len(s.hooks) && s.hooks[s.nextHook].At < next {
		h := s.hooks[s.nextHook]
		s.nextHook++
		h.Fn(s)
		s.hooked = true
	}
	// Admit flows whose init completes within this step. The cursor (with
	// admitted slots nilled out) lets long-running sims release admitted
	// flows to the GC; re-slicing the queue instead would pin the whole
	// backing array for the run.
	for s.next < len(s.pending) && s.pending[s.next].Started < next {
		s.active = append(s.grow(s.active), s.pending[s.next])
		s.pending[s.next] = nil
		s.next++
	}
	if len(s.active) == 0 {
		if s.next < len(s.pending) && s.pending[s.next].Started > next {
			first := s.pending[s.next].Started
			next = first - (first % stepLen)
			if next <= s.now {
				next = s.now + stepLen
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
					ref := s.Collector.Of(f.ID)
					ref.SetBytesAcked(f.Size - int64(f.Remaining))
					ref.Terminate(s.now)
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
		switch {
		case s.fast == nil:
			s.Alloc.Allocate(t, s.active, linkCap)
		case s.hooked:
			s.fast.allocate(t, s.active, linkCap, hooked)
		default:
			s.fast.allocate(t, s.active, linkCap, unchanged)
		}
		s.hooked = false
		if s.check != nil {
			s.check(s.active)
		}
		// Preemptions, and the earliest completion at the current rates,
		// capped by step end.
		dt := next - t
		for _, f := range s.active {
			if f.Rate > 0 {
				f.sending = true
				need := sim.Time(f.Remaining * 8 / (f.Rate * goodput) * float64(sim.Second))
				if need < dt {
					dt = need
				}
			} else if f.sending {
				f.sending = false
				s.Collector.Of(f.ID).AddPreemption()
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
			f.Remaining -= float64(f.Rate * goodput * secs / 8)
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
// the flows it saw last and what each of them saw on every link (ledger)
// between calls, so one instance serves one flow set at a time.
type PDQ struct {
	Mode CritMode
	// AgingRate is the Fig. 12 α: a paused flow's expected transmission
	// time is scaled by 2^(−α·t) with t its waiting time in units of
	// 100 ms, preventing starvation. 0 disables aging.
	AgingRate float64
	rng       *rand.Rand
	ledger
}

// NewPDQ returns a PDQ allocator with deterministic randomness (used only
// by CritRandom).
func NewPDQ(mode CritMode, seed int64) *PDQ {
	return &PDQ{Mode: mode, rng: rand.New(rand.NewSource(seed))}
}

// Reset readies p for another run, as NewPDQ(mode, seed) with AgingRate
// aging would be, keeping the storage its ledger grew.
func (p *PDQ) Reset(mode CritMode, seed int64, aging float64) {
	p.Mode, p.AgingRate = mode, aging
	p.rng.Seed(seed)
	p.Rewind()
}

// Allocate implements Allocator: order by criticality, then grant each flow
// min(NIC rate, residual capacity along its path), in order (§3).
func (p *PDQ) Allocate(now sim.Time, flows []*FlowState, cap func(*netsim.Link) float64) {
	p.allocate(now, flows, cap, anyChange)
}

func (p *PDQ) allocate(now sim.Time, flows []*FlowState, cap capFn, c change) {
	// Criticalities are drawn and re-estimated in the caller's order: the
	// random mode's stream must not depend on the kept order.
	switch p.Mode {
	case CritRandom:
		for _, f := range flows {
			if f.crit == 0 {
				f.crit = float64(p.rng.Float64()) + 1e-9
			}
		}
	case CritEstimate:
		for _, f := range flows {
			sent := float64(f.Size) - f.Remaining
			f.crit = math.Floor(sent/float64(50<<10)) + 1
		}
	}
	// EDF, then SRPT on the aged remaining size; or the cached criticality
	// alone. The deadline is set once, when the flow is listed.
	g := &p.ledger
	g.edf = p.Mode == CritPerfect
	g.sync(flows, cap, c)
	ents := g.ord.ents
	if g.edf {
		for i := range ents {
			ents[i].minor = p.aged(ents[i].f)
		}
	} else {
		for i := range ents {
			ents[i].minor = ents[i].f.crit
		}
	}
	g.settle()
	if g.full {
		g.resetRuns()
	}
	g.walk(pdqGrant)
}

// pdqGrant is min(NIC floor, residual on every hop), never negative.
func pdqGrant(_ *ledger, r *ledFlow) float64 {
	rate := r.nic
	for k := range r.hops {
		if s := r.hops[k].seen; s < rate {
			rate = s
		}
	}
	if rate < 0 {
		rate = 0
	}
	r.f.Rate = rate
	return rate
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
// D3 allocator.

// D3 is the flow-level D3 allocator: deadline flows reserve r = s/d in
// arrival order, then the leftover is shared max-min fairly. It keeps the
// arrival order of the flows it saw last and what each saw on every link
// (ledger) between calls, so one instance serves one flow set at a time.
type D3 struct {
	ledger
	reserved bool // the last call had a flow with a deadline
}

// NewD3 returns a D3 allocator.
func NewD3() *D3 { return &D3{ledger: ledger{d3: true}} }

// Allocate implements Allocator.
func (p *D3) Allocate(now sim.Time, flows []*FlowState, cap func(*netsim.Link) float64) {
	p.allocate(now, flows, cap, anyChange)
}

func (p *D3) allocate(now sim.Time, flows []*FlowState, cap capFn, c change) {
	// First-come first-reserve: arrival time, ties by ID, set when a flow
	// is listed. The caller admits flows in that order, so the kept list is
	// almost always sorted as is.
	g := &p.ledger
	g.sync(flows, cap, c)
	// A reservation moves with the clock, and pass 2 starts from what
	// pass 1 left: while a flow has a deadline, and on the call after,
	// every flow is recomputed.
	dated := g.dated > 0
	g.full = dated || p.reserved
	p.reserved = dated
	g.settle()
	if g.full {
		g.resetRuns()
		p.reserve(now)
	}
	g.walk(d3Grant)
}

// reserve is pass 1: reservations in arrival order, off the running
// residuals, with every Rate zeroed first.
func (p *D3) reserve(now sim.Time) {
	ents := p.ord.ents
	for i := range ents {
		ents[i].f.Rate = 0
	}
	for _, e := range ents {
		r := &p.recs[e.rec]
		if r.dl == sim.MaxTime {
			continue // no deadline, or one at the end of time: s/∞ reserves nothing
		}
		left := r.dl - now
		if left <= 0 {
			continue
		}
		f := e.f
		want := f.Remaining * 8 / left.Seconds() / goodput
		if want > r.nic {
			want = r.nic
		}
		grant := want
		for _, h := range r.hops {
			if v := p.links[h.link].run; v < grant {
				grant = v
			}
		}
		if grant < 0 {
			grant = 0
		}
		f.Rate = grant
		for _, h := range r.hops {
			p.links[h.link].run -= grant
		}
	}
}

// d3Grant is pass 2, the fair share of the leftover: the minimum over the
// path of residual/(flows still to be served on the link), the per-link
// equal split D3 computes as fs. Counts shrink as flows take their share
// so the split is equal, not geometric. On a full call the flow's Rate
// holds its reservation; on any other no flow reserves.
func d3Grant(g *ledger, r *ledFlow) float64 {
	grant := math.Inf(1)
	for k := range r.hops {
		h := &r.hops[k]
		if share := h.seen / g.count(h); share < grant {
			grant = share
		}
	}
	f := r.f
	base := 0.0
	if g.full {
		base = f.Rate
	}
	if nic := r.nic; base+grant > nic {
		grant = nic - base
	}
	if grant < 0 || math.IsInf(grant, 1) {
		grant = 0
	}
	f.Rate = base + grant
	return grant
}
