package flowsim

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// The differential driver: the production allocators and the reference
// copies in alloc_ref_test.go run side by side on cloned flow sets through
// a stream of arrivals, completions, progress, link failures and path
// replacement, and every rate must match bit for bit after every round.
// The same driver serves the seeded table test, the awkward-membership
// cases and FuzzAllocatorsMatchReference; it is the pattern of
// sim/heap_diff_test.go's lockstep and topo/path_ref_test.go.

// allocPair is one production allocator and its reference.
type allocPair struct{ got, ref Allocator }

// diffCfg is one allocator configuration under test.
type diffCfg struct {
	name      string
	deadlines bool
	mk        func(seed int64) allocPair
}

func pdqPair(mode CritMode, aging float64) func(int64) allocPair {
	return func(seed int64) allocPair {
		got, ref := NewPDQ(mode, seed), newRefPDQ(mode, seed)
		got.AgingRate, ref.AgingRate = aging, aging
		return allocPair{got, ref}
	}
}

func rcpPair(int64) allocPair { return allocPair{NewRCP(), newRefRCP()} }
func d3Pair(int64) allocPair  { return allocPair{NewD3(), newRefD3()} }

var diffCfgs = []diffCfg{
	{"PDQ", false, pdqPair(CritPerfect, 0)},
	{"PDQ-deadlines", true, pdqPair(CritPerfect, 0)},
	{"PDQ-aging2", false, pdqPair(CritPerfect, 2)},
	{"PDQ-aging2-deadlines", true, pdqPair(CritPerfect, 2)},
	{"PDQ-random", false, pdqPair(CritRandom, 0)},
	{"PDQ-estimate", false, pdqPair(CritEstimate, 0)},
	{"RCP", false, rcpPair},
	{"D3", true, d3Pair},
	{"D3-no-deadlines", false, d3Pair},
}

var diffTopos = []struct {
	name  string
	build func() *topo.Topology
}{
	{"fat-tree-k4", func() *topo.Topology { return unevenRates(topo.FatTree(4, 1)) }},
	{"bcube-2-2", func() *topo.Topology { return unevenRates(topo.BCube(2, 2, 1)) }},
	{"single-rooted-tree", func() *topo.Topology { return unevenRates(topo.SingleRootedTree(4, 3, 1)) }},
}

// unevenRates gives the links a spread of capacities that are not round
// in binary. On uniform 1 Gbps links every grant of a water-filling round
// is the same number and NIC floors never bind, so sums come out the same
// in any order; with these, a reordered subtraction moves a bit.
func unevenRates(tp *topo.Topology) *topo.Topology {
	for _, l := range tp.Net.Links() {
		l.Rate = []int64{1e9, 333333333, 4e8, 1e9, 357142857, 1e8}[l.ID%6]
	}
	return tp
}

// opStream feeds the driver its decisions: fuzz input or seeded random
// bytes. It yields zeros once exhausted, so any byte string is a valid
// program.
type opStream struct {
	b []byte
	i int
}

func (s *opStream) next() byte {
	if s.i >= len(s.b) {
		return 0
	}
	v := s.b[s.i]
	s.i++
	return v
}

func (s *opStream) done() bool { return s.i >= len(s.b) }

// flowPair is one flow as the production allocator sees it and its clone
// for the reference.
type flowPair struct{ got, ref *FlowState }

type diffDriver struct {
	tb        testing.TB
	tp        *topo.Topology
	allocs    []allocPair // each runs every round, in turn, on the same flows
	deadlines bool

	flows  []flowPair
	parked []flowPair // removed flows, eligible for re-admission
	got    []*FlowState
	ref    []*FlowState
	load   []float64 // per-link rate sum, invariant check scratch

	now      sim.Time
	nextID   uint64
	rounds   int
	rerouted int
}

const diffMaxFlows = 64

func newDiffDriver(tb testing.TB, tp *topo.Topology, deadlines bool, allocs ...allocPair) *diffDriver {
	return &diffDriver{tb: tb, tp: tp, allocs: allocs, deadlines: deadlines,
		load: make([]float64, len(tp.Net.Links())), nextID: 1}
}

// apply decodes and executes one operation from in.
func (d *diffDriver) apply(in *opStream) {
	switch op := in.next() % 16; {
	case op < 5:
		d.arrive(in.next(), in.next(), in.next(), in.next())
	case op < 7:
		d.complete(in.next())
	case op < 10:
		d.progress(in.next())
	case op == 10:
		links := d.tp.Net.Links()
		l := links[(int(in.next())<<8|int(in.next()))%len(links)]
		l.SetDuplexDown(!l.Down())
	case op == 11:
		d.reroute(in.next(), in.next())
	case op == 12:
		d.park(in.next())
	case op == 13:
		d.readmit(in.next())
	case op == 14:
		// The switch-crash hook: cached criticalities are forgotten.
		for _, p := range d.flows {
			p.got.crit, p.ref.crit = 0, 0
		}
	default:
		d.shrink(in.next(), in.next())
	}
}

func (d *diffDriver) arrive(a, b, size, dl byte) {
	if len(d.flows) >= diffMaxFlows {
		d.complete(a)
		return
	}
	n := len(d.tp.Hosts)
	src := int(a) % n
	dst := (src + 1 + int(b)%(n-1)) % n
	f := workload.Flow{ID: d.nextID, Src: src, Dst: dst,
		Size: (int64(size) + 1) * 20 << 10, Start: d.now}
	d.nextID++
	if d.deadlines && dl%4 != 0 {
		f.Deadline = sim.Time(dl) * sim.Millisecond / 4
	}
	path := d.tp.Path(d.tp.Hosts[src], d.tp.Hosts[dst])
	mk := func() *FlowState {
		// Literal-built, like benchmark/kernels.go: cached per-flow
		// state must appear lazily on first sight.
		return &FlowState{Flow: f, Path: path, Remaining: float64(f.Size), Started: f.Start}
	}
	d.flows = append(d.flows, flowPair{mk(), mk()})
}

// complete removes the flow that would finish first at the current rates
// (least Remaining/Rate), or flow k when nothing is sending.
func (d *diffDriver) complete(k byte) {
	if len(d.flows) == 0 {
		return
	}
	best, bestT := int(k)%len(d.flows), math.Inf(1)
	for i, p := range d.flows {
		if p.got.Rate > 0 {
			if t := p.got.Remaining / p.got.Rate; t < bestT {
				best, bestT = i, t
			}
		}
	}
	d.remove(best)
}

func (d *diffDriver) remove(i int) flowPair {
	p := d.flows[i]
	d.flows = append(d.flows[:i], d.flows[i+1:]...)
	return p
}

// progress advances the clock the way Sim.step does: sending flows drain,
// paused flows accumulate waiting time, drained flows leave.
func (d *diffDriver) progress(b byte) {
	dt := sim.Time(b)*50*sim.Microsecond + 1
	secs := float64(dt) / float64(sim.Second)
	kept := d.flows[:0]
	for _, p := range d.flows {
		if p.got.Rate <= 0 {
			p.got.Waiting += dt
			p.ref.Waiting += dt
			kept = append(kept, p)
			continue
		}
		p.got.Remaining -= p.got.Rate * goodput * secs / 8
		p.ref.Remaining -= p.ref.Rate * goodput * secs / 8
		if p.got.Remaining >= 0.5 {
			kept = append(kept, p)
		}
	}
	d.flows = kept
	d.now += dt
}

// reroute replaces one flow's Path: onto the failover route around the
// downed links, or onto another equal-cost path.
func (d *diffDriver) reroute(k, which byte) {
	if len(d.flows) == 0 {
		return
	}
	p := d.flows[int(k)%len(d.flows)]
	src, dst := d.tp.Hosts[p.got.Src], d.tp.Hosts[p.got.Dst]
	var np []*netsim.Link
	if which%2 == 0 {
		np = d.tp.PathExcluding(src, dst, (*netsim.Link).Down)
	} else if alts := d.tp.Paths(src, dst, 4); len(alts) > 0 {
		np = alts[int(which/2)%len(alts)]
	}
	if np == nil {
		return
	}
	p.got.Path, p.ref.Path = np, np
	d.rerouted++
}

func (d *diffDriver) park(k byte) {
	if len(d.flows) > 0 {
		d.parked = append(d.parked, d.remove(int(k)%len(d.flows)))
	}
}

func (d *diffDriver) readmit(k byte) {
	if len(d.parked) == 0 || len(d.flows) >= diffMaxFlows {
		return
	}
	i := int(k) % len(d.parked)
	d.flows = append(d.flows, d.parked[i])
	d.parked = append(d.parked[:i], d.parked[i+1:]...)
}

// shrink scales one flow's Remaining down, reordering it under SRPT by
// more than one step of progress would.
func (d *diffDriver) shrink(k, by byte) {
	if len(d.flows) == 0 {
		return
	}
	p := d.flows[int(k)%len(d.flows)]
	r := p.got.Remaining * (float64(by) + 1) / 257
	if r < 1 {
		r = 1
	}
	p.got.Remaining, p.ref.Remaining = r, r
}

// round runs every allocator pair on the current flow set and compares.
func (d *diffDriver) round() {
	d.got, d.ref = d.got[:0], d.ref[:0]
	for _, p := range d.flows {
		d.got = append(d.got, p.got)
		d.ref = append(d.ref, p.ref)
	}
	d.rounds++
	for _, a := range d.allocs {
		a.got.Allocate(d.now, d.got, linkCap)
		a.ref.Allocate(d.now, d.ref, linkCap)
		d.compare(a)
		d.invariants(a)
	}
}

func (d *diffDriver) compare(a allocPair) {
	d.tb.Helper()
	for i, g := range d.got {
		r := d.ref[i]
		if math.Float64bits(g.Rate) != math.Float64bits(r.Rate) {
			d.tb.Fatalf("round %d, %s, flow %d (%d of %d): rate %v (%#x), reference %v (%#x)",
				d.rounds, a.got.Name(), g.ID, i, len(d.got),
				g.Rate, math.Float64bits(g.Rate), r.Rate, math.Float64bits(r.Rate))
		}
	}
}

// invariants checks the model's physical sanity on the production rates:
// no negative rate, no flow above its NIC floor, no link above capacity —
// a downed link has capacity zero, so it carries nothing.
func (d *diffDriver) invariants(a allocPair) {
	d.tb.Helper()
	for i := range d.load {
		d.load[i] = 0
	}
	for _, f := range d.got {
		if f.Rate < 0 || math.IsNaN(f.Rate) {
			d.tb.Fatalf("round %d, %s, flow %d: rate %v", d.rounds, a.got.Name(), f.ID, f.Rate)
		}
		if nic := float64(refMinNIC(f)); f.Rate > nic*(1+1e-9) {
			d.tb.Fatalf("round %d, %s, flow %d: rate %v above NIC floor %v", d.rounds, a.got.Name(), f.ID, f.Rate, nic)
		}
		for _, l := range f.Path {
			d.load[l.ID] += f.Rate
		}
	}
	for _, l := range d.tp.Net.Links() {
		if c := linkCap(l); d.load[l.ID] > c*(1+1e-9) {
			d.tb.Fatalf("round %d, %s: link %d carries %v of capacity %v", d.rounds, a.got.Name(), l.ID, d.load[l.ID], c)
		}
	}
}

// run executes the whole stream, one round per operation, up to maxRounds.
func (d *diffDriver) run(in *opStream, maxRounds int) {
	d.tb.Helper()
	for !in.done() && d.rounds < maxRounds {
		d.apply(in)
		d.round()
	}
}

// seededStream is 8 KiB of seeded random bytes: ≥ 1 600 operations.
func seededStream(seed int64) *opStream {
	b := make([]byte, 8<<10)
	rand.New(rand.NewSource(seed)).Read(b)
	return &opStream{b: b}
}

func TestAllocatorsMatchReference(t *testing.T) {
	for ti, tc := range diffTopos {
		for ci, cfg := range diffCfgs {
			t.Run(tc.name+"/"+cfg.name, func(t *testing.T) {
				seed := int64(100*ti + ci + 1)
				d := newDiffDriver(t, tc.build(), cfg.deadlines, cfg.mk(seed))
				d.run(seededStream(seed), 600)
				if d.rounds < 200 {
					t.Fatalf("only %d rounds ran, want ≥ 200", d.rounds)
				}
				if d.rerouted == 0 {
					t.Error("no path was ever replaced: the stream does not exercise rerouting")
				}
			})
		}
	}
}

// TestAllocatorsShareFlowStates hands the same []*FlowState to three
// allocators in turn every round — what benchmark/kernels.go does — so
// PDQ's and D3's membership marks on one FlowState must not confuse each
// other.
func TestAllocatorsShareFlowStates(t *testing.T) {
	for _, tc := range diffTopos {
		t.Run(tc.name, func(t *testing.T) {
			d := newDiffDriver(t, tc.build(), true,
				pdqPair(CritPerfect, 2)(1), rcpPair(1), d3Pair(1), pdqPair(CritRandom, 0)(2))
			d.run(seededStream(7), 400)
		})
	}
}

// TestAllocatorsReadmission removes a flow, runs rounds without it and
// hands it back: it must be listed again exactly once.
func TestAllocatorsReadmission(t *testing.T) {
	for _, cfg := range diffCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			d := newDiffDriver(t, diffTopos[0].build(), cfg.deadlines, cfg.mk(3))
			for i := 0; i < 24; i++ {
				d.arrive(byte(i), byte(5*i+1), byte(200-7*i), byte(3*i+1))
			}
			d.round()
			for k := 0; k < 8; k++ {
				d.park(byte(3 * k))
				d.round()
				d.progress(40)
				d.round()
				d.readmit(0)
				d.round()
			}
		})
	}
}

// TestAllocatorsDuplicatePointer gives the allocators a slice that lists
// one flow twice. The reference serves it twice (the second grant wins);
// the kept order must fall back to a rebuild rather than corrupt itself,
// and recover once the duplicate is gone.
func TestAllocatorsDuplicatePointer(t *testing.T) {
	for _, cfg := range diffCfgs {
		t.Run(cfg.name, func(t *testing.T) {
			a := cfg.mk(5)
			d := newDiffDriver(t, diffTopos[0].build(), cfg.deadlines, a)
			for i := 0; i < 12; i++ {
				d.arrive(byte(2*i), byte(i+3), byte(40+i), byte(i+1))
			}
			d.round()
			for _, dup := range []int{0, 5, 11} {
				d.got = append(d.got[:0], flowsOf(d.flows, false)...)
				d.ref = append(d.ref[:0], flowsOf(d.flows, true)...)
				d.got = append(d.got, d.flows[dup].got)
				d.ref = append(d.ref, d.flows[dup].ref)
				d.rounds++
				a.got.Allocate(d.now, d.got, linkCap)
				a.ref.Allocate(d.now, d.ref, linkCap)
				d.compare(a)
				d.progress(10)
				d.round() // duplicate gone
			}
		})
	}
}

func flowsOf(ps []flowPair, ref bool) []*FlowState {
	out := make([]*FlowState, len(ps))
	for i, p := range ps {
		out[i] = p.got
		if ref {
			out[i] = p.ref
		}
	}
	return out
}

// TestOrderMarkWrap forces the membership stamp across the uint32 limit:
// stale marks from before the wrap must not read as current.
func TestOrderMarkWrap(t *testing.T) {
	pdq, d3 := pdqPair(CritPerfect, 0)(1), d3Pair(1)
	pdq.got.(*PDQ).ord.epoch = math.MaxUint32 - 9
	d3.got.(*D3).ord.epoch = math.MaxUint32 - 5
	d := newDiffDriver(t, diffTopos[0].build(), true, pdq, d3)
	d.run(seededStream(11), 64)
	if e := pdq.got.(*PDQ).ord.epoch; e > 200 {
		t.Fatalf("PDQ epoch %d did not wrap", e)
	}
	if e := d3.got.(*D3).ord.epoch; e > 200 {
		t.Fatalf("D3 epoch %d did not wrap", e)
	}
}

// TestFlowStateSize pins what the allocators' per-flow state costs: the
// order lists' membership mark rides in the padding after sending, and
// everything else they derive lives in their own scratch.
func TestFlowStateSize(t *testing.T) {
	if got := unsafe.Sizeof(FlowState{}); got != 120 {
		t.Errorf("FlowState is %d bytes, want 120", got)
	}
}

// FuzzAllocatorsMatchReference decodes bytes into a topology, an
// allocator configuration, a seed and an operation stream (the opcodes of
// diffDriver.apply) for the differential driver. The hand-written seed
// corpus under testdata/fuzz — a batch that arrives and drains, links
// failing under RCP with failover and return, D3 deadlines expiring
// mid-flow, a criticality reset with parked flows returning, aging with
// re-admission, size estimation with out-of-band shrinks — replays as unit
// cases under plain go test.
func FuzzAllocatorsMatchReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &opStream{b: data}
		tc := diffTopos[int(in.next())%len(diffTopos)]
		cfg := diffCfgs[int(in.next())%len(diffCfgs)]
		d := newDiffDriver(t, tc.build(), cfg.deadlines, cfg.mk(int64(in.next())))
		d.run(in, 512)
	})
}
