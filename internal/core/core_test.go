package core

import (
	"testing"
	"testing/quick"

	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/protocol/xfer"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// runFlows installs PDQ on the topology, starts all flows and runs to
// horizon.
func runFlows(t testing.TB, tp *topo.Topology, cfg Config, flows []workload.Flow, horizon sim.Time) []workload.Result {
	t.Helper()
	sys := Install(tp, cfg)
	for _, f := range flows {
		sys.Start(f)
	}
	tp.Sim().RunUntil(horizon)
	return sys.Results()
}

func flow(id uint64, src, dst int, size int64, start, deadline sim.Time) workload.Flow {
	return workload.Flow{ID: id, Src: src, Dst: dst, Size: size, Start: start, Deadline: deadline}
}

func TestSingleFlowCompletes(t *testing.T) {
	tp := topo.SingleBottleneck(1, 1)
	rs := runFlows(t, tp, Full(), []workload.Flow{flow(1, 0, 1, 100<<10, 0, 0)}, sim.Second)
	r := rs[0]
	if !r.Done() {
		t.Fatal("flow did not complete")
	}
	// Raw transfer time at 1 Gbps is ~0.84 ms (incl. header overhead);
	// with the 2-RTT init it must land well under 2 ms.
	if r.FCT() > 2*sim.Millisecond {
		t.Errorf("FCT %v too large", r.FCT())
	}
	if r.FCT() < 800*sim.Microsecond {
		t.Errorf("FCT %v impossibly small", r.FCT())
	}
}

func TestCriticalityComparator(t *testing.T) {
	k := func(id uint64) flowKey { return flowKey{netsim.FlowID(id), 0} }
	a := Criticality{Deadline: 10, TTrans: 100, Key: k(2)}
	b := Criticality{Deadline: 20, TTrans: 1, Key: k(1)}
	if !a.Less(b) {
		t.Error("EDF: earlier deadline must dominate")
	}
	c := Criticality{Deadline: noDeadline, TTrans: 5, Key: k(3)}
	d := Criticality{Deadline: noDeadline, TTrans: 9, Key: k(4)}
	if !c.Less(d) {
		t.Error("SJF tie-break on TTrans")
	}
	if !b.Less(c) {
		t.Error("deadline flow must dominate no-deadline flow")
	}
	e := Criticality{Deadline: noDeadline, TTrans: 5, Key: k(4)}
	if !c.Less(e) || e.Less(c) {
		t.Error("flow-ID tie-break")
	}
}

func TestPropertyComparatorTotalOrder(t *testing.T) {
	mk := func(d, tt uint16, id uint8) Criticality {
		dl := sim.Time(d)
		if d%5 == 0 {
			dl = noDeadline
		}
		return Criticality{Deadline: dl, TTrans: sim.Time(tt), Key: flowKey{netsim.FlowID(id), 0}}
	}
	// Antisymmetry and totality.
	f := func(d1, t1 uint16, i1 uint8, d2, t2 uint16, i2 uint8) bool {
		a, b := mk(d1, t1, i1), mk(d2, t2, i2)
		if a == b {
			return !a.Less(b) && !b.Less(a)
		}
		return a.Less(b) != b.Less(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	// Transitivity on random triples.
	g := func(d1, t1 uint16, i1 uint8, d2, t2 uint16, i2 uint8, d3, t3 uint16, i3 uint8) bool {
		a, b, c := mk(d1, t1, i1), mk(d2, t2, i2), mk(d3, t3, i3)
		if a.Less(b) && b.Less(c) {
			return a.Less(c)
		}
		return true
	}
	if err := quick.Check(g, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSJFOrderingTwoFlows(t *testing.T) {
	// Two no-deadline flows sharing a bottleneck: PDQ must emulate SJF —
	// the short one preempts and finishes first, and completion is
	// (nearly) sequential rather than fair-shared.
	tp := topo.SingleBottleneck(2, 1)
	short := flow(1, 0, 2, 100<<10, 0, 0)
	long := flow(2, 1, 2, 1<<20, 0, 0)
	rs := runFlows(t, tp, Full(), []workload.Flow{short, long}, sim.Second)
	if !rs[0].Done() || !rs[1].Done() {
		t.Fatalf("flows incomplete: %+v %+v", rs[0], rs[1])
	}
	if rs[0].Finish >= rs[1].Finish {
		t.Error("short flow should finish first under SJF")
	}
	// Under fair sharing the short flow would take ~2×0.84 ms ≈ 1.7 ms.
	// Under SJF it should be close to its solo time (~0.9 ms).
	if rs[0].FCT() > 1400*sim.Microsecond {
		t.Errorf("short flow FCT %v suggests fair sharing, not SJF", rs[0].FCT())
	}
	// Long flow: ~8.4 ms raw + short flow ahead of it.
	if rs[1].FCT() > 12*sim.Millisecond {
		t.Errorf("long flow FCT %v too large", rs[1].FCT())
	}
}

func TestEDFOrderingBeatsSize(t *testing.T) {
	// A large flow with an early deadline must preempt a small one with a
	// late deadline (EDF dominates SJF in the comparator).
	tp := topo.SingleBottleneck(2, 1)
	urgent := flow(1, 0, 2, 500<<10, 0, 6*sim.Millisecond)
	relaxed := flow(2, 1, 2, 50<<10, 0, 50*sim.Millisecond)
	rs := runFlows(t, tp, Full(), []workload.Flow{urgent, relaxed}, sim.Second)
	if !rs[0].MetDeadline() {
		t.Errorf("urgent flow missed deadline: %+v", rs[0])
	}
	if !rs[1].MetDeadline() {
		t.Errorf("relaxed flow missed deadline: %+v", rs[1])
	}
	if rs[0].Finish >= rs[1].Finish {
		t.Error("urgent (earlier-deadline) flow should finish first")
	}
}

func TestPreemptionPausesLongFlow(t *testing.T) {
	// Long flow running alone; a short flow arrives mid-transfer and must
	// preempt it (§5.4 scenario 2, miniature).
	tp := topo.SingleBottleneck(2, 1)
	long := flow(1, 0, 2, 5<<20, 0, 0)
	short := flow(2, 1, 2, 20<<10, 10*sim.Millisecond, 0)
	rs := runFlows(t, tp, Full(), []workload.Flow{long, short}, sim.Second)
	if !rs[0].Done() || !rs[1].Done() {
		t.Fatal("flows incomplete")
	}
	// The short flow (~170 µs raw) must finish within a few ms of its
	// start despite the long flow occupying the link.
	if rs[1].FCT() > 3*sim.Millisecond {
		t.Errorf("short flow FCT %v: preemption failed", rs[1].FCT())
	}
	if rs[0].Finish <= rs[1].Finish {
		t.Error("long flow should finish after the short one")
	}
}

func TestFiveFlowConvergence(t *testing.T) {
	// Fig. 6: five ~1 MB flows starting together finish in ~42 ms
	// (sequential SJF service at ~1 Gbps + protocol overhead), not the
	// ~40 ms fluid bound and nowhere near fair sharing tails.
	tp := topo.SingleBottleneck(5, 1)
	var flows []workload.Flow
	for i := 0; i < 5; i++ {
		flows = append(flows, flow(uint64(i+1), i, 5, 1<<20+int64(i)*100, 0, 0))
	}
	rs := runFlows(t, tp, Full(), flows, sim.Second)
	var last sim.Time
	for i, r := range rs {
		if !r.Done() {
			t.Fatalf("flow %d incomplete", i)
		}
		if r.Finish > last {
			last = r.Finish
		}
	}
	if last > 46*sim.Millisecond {
		t.Errorf("all-flows completion %v, want ~42 ms (seamless switching)", last)
	}
	if last < 40*sim.Millisecond {
		t.Errorf("all-flows completion %v impossibly fast", last)
	}
	// Flows must finish one after another (SJF by perturbed size).
	for i := 1; i < 5; i++ {
		if rs[i].Finish <= rs[i-1].Finish {
			t.Errorf("flow %d finished before flow %d", i, i-1)
		}
	}
}

func TestEarlyTerminationFreesBandwidth(t *testing.T) {
	// Two flows with the same 8 ms deadline, each needing ~4.3 ms alone:
	// both cannot make it. With ET the hopeless one gives up, letting the
	// other meet its deadline.
	tp := topo.SingleBottleneck(2, 1)
	f1 := flow(1, 0, 2, 500<<10, 0, 8*sim.Millisecond)
	f2 := flow(2, 1, 2, 500<<10, 0, 8*sim.Millisecond)
	rs := runFlows(t, tp, Full(), []workload.Flow{f1, f2}, sim.Second)
	met := 0
	for _, r := range rs {
		if r.MetDeadline() {
			met++
		}
	}
	if met != 1 {
		t.Errorf("met=%d, want exactly 1 (ET discards the hopeless flow)", met)
	}
	term := 0
	for _, r := range rs {
		if r.Terminated {
			term++
		}
	}
	if term != 1 {
		t.Errorf("terminated=%d, want 1", term)
	}
}

func TestInfeasibleDeadlineTerminatesImmediately(t *testing.T) {
	tp := topo.SingleBottleneck(1, 1)
	// 5 MB in 3 ms at 1 Gbps is impossible (needs ~42 ms).
	f := flow(1, 0, 1, 5<<20, 0, 3*sim.Millisecond)
	rs := runFlows(t, tp, Full(), []workload.Flow{f}, sim.Second)
	if !rs[0].Terminated {
		t.Error("infeasible flow should be terminated early")
	}
}

func TestNoEarlyTerminationInBasic(t *testing.T) {
	tp := topo.SingleBottleneck(1, 1)
	f := flow(1, 0, 1, 5<<20, 0, 3*sim.Millisecond)
	rs := runFlows(t, tp, Basic(), []workload.Flow{f}, sim.Second)
	if rs[0].Terminated {
		t.Error("Basic must not early-terminate")
	}
	if !rs[0].Done() {
		t.Error("flow should still complete (late)")
	}
}

func TestEarlyStartReducesGaps(t *testing.T) {
	// Ten short flows through one bottleneck: with Early Start the total
	// completion should be close to back-to-back; Basic leaves ≥1 RTT idle
	// between flows.
	mk := func() []workload.Flow {
		var fl []workload.Flow
		for i := 0; i < 10; i++ {
			fl = append(fl, flow(uint64(i+1), i%3, 3, 60<<10, 0, 0))
		}
		return fl
	}
	last := func(rs []workload.Result) sim.Time {
		var m sim.Time
		for _, r := range rs {
			if !r.Done() {
				return sim.MaxTime
			}
			if r.Finish > m {
				m = r.Finish
			}
		}
		return m
	}
	tpES := topo.SingleBottleneck(3, 1)
	esDone := last(runFlows(t, tpES, ES(), mk(), sim.Second))
	tpB := topo.SingleBottleneck(3, 2)
	basicDone := last(runFlows(t, tpB, Basic(), mk(), sim.Second))
	if esDone == sim.MaxTime || basicDone == sim.MaxTime {
		t.Fatal("flows incomplete")
	}
	if esDone >= basicDone {
		t.Errorf("Early Start total %v not better than Basic %v", esDone, basicDone)
	}
}

func TestDeadlockFreedom(t *testing.T) {
	// Appendix A: with many competing flows across multiple bottlenecks,
	// every flow eventually completes (no two flows wait on each other
	// forever). Random permutation on the 12-server tree.
	tp := topo.SingleRootedTree(4, 3, 3)
	g := workload.NewGen(3, workload.UniformMean(100<<10), 0)
	flows := g.Batch(36, workload.Permutation{}, 12, nil, 0)
	rs := runFlows(t, tp, Full(), flows, 5*sim.Second)
	for i, r := range rs {
		if !r.Done() {
			t.Fatalf("flow %d never completed: deadlock or starvation", i)
		}
	}
}

func TestConvergenceWithinBound(t *testing.T) {
	// Appendix B: with a stable workload the system converges to
	// equilibrium in P_max+1 RTTs. Three equal flows to one receiver:
	// after ~4 RTTs exactly one flow must be sending (the driver) and the
	// others paused.
	tp := topo.SingleBottleneck(3, 1)
	sys := Install(tp, Full())
	for i := 0; i < 3; i++ {
		sys.Start(flow(uint64(i+1), i, 3, 10<<20, 0, 0))
	}
	tp.Sim().RunUntil(2 * sim.Millisecond) // >> Pmax+1 RTTs ≈ 450 µs
	sending := 0
	sys.EachSender(func(sd protocol.Sender) {
		for _, sub := range sd.(*xfer.Window).Pacers() {
			if sub.Rate() > 0 {
				sending++
			}
		}
	})
	if sending != 1 {
		t.Errorf("flows sending at equilibrium = %d, want 1", sending)
	}
}

func TestResilienceToLoss(t *testing.T) {
	// §5.6: PDQ keeps working over a lossy bottleneck (both directions).
	tp := topo.SingleBottleneck(3, 1)
	recvAccess := tp.Hosts[3].Access // switch→receiver direction is Peer
	bottleneck := recvAccess.Peer
	bottleneck.LossRate = 0.03
	bottleneck.Peer.LossRate = 0.03
	var flows []workload.Flow
	for i := 0; i < 3; i++ {
		flows = append(flows, flow(uint64(i+1), i, 3, 200<<10, 0, 0))
	}
	rs := runFlows(t, tp, Full(), flows, 10*sim.Second)
	for i, r := range rs {
		if !r.Done() {
			t.Fatalf("flow %d lost to packet loss", i)
		}
	}
}

func TestSwitchListBounded(t *testing.T) {
	// §3.3.1: switch memory stays small — the list never exceeds
	// min(2κ, MaxList) and with one bottleneck κ is tiny.
	tp := topo.SingleBottleneck(8, 1)
	cfg := Full()
	sys := Install(tp, cfg)
	for i := 0; i < 8; i++ {
		sys.Start(flow(uint64(i+1), i, 8, 500<<10, 0, 0))
	}
	probeMax := 0
	tp.Sim().After(sim.Millisecond, func() {})
	done := false
	var tick func()
	tick = func() {
		if done {
			return
		}
		if m := sys.Logic.MaxListLen(); m > probeMax {
			probeMax = m
		}
		tp.Sim().After(100*sim.Microsecond, tick)
	}
	tp.Sim().After(100*sim.Microsecond, tick)
	tp.Sim().RunUntil(80 * sim.Millisecond)
	done = true
	for i, r := range sys.Results() {
		if !r.Done() {
			t.Fatalf("flow %d incomplete", i)
		}
	}
	if probeMax > cfg.withDefaults().MaxList {
		t.Errorf("flow list grew to %d", probeMax)
	}
	if probeMax == 0 {
		t.Error("probe saw no list entries")
	}
}

func TestTreeCrossTraffic(t *testing.T) {
	// Flows across the single-rooted tree with deadlines: PDQ should
	// satisfy clearly-feasible deadlines.
	tp := topo.SingleRootedTree(4, 3, 1)
	var flows []workload.Flow
	for i := 0; i < 6; i++ {
		flows = append(flows, flow(uint64(i+1), i, 6+i, 50<<10, 0, 20*sim.Millisecond))
	}
	rs := runFlows(t, tp, Full(), flows, sim.Second)
	for i, r := range rs {
		if !r.MetDeadline() {
			t.Errorf("flow %d missed an easy deadline: %+v", i, r)
		}
	}
}

func TestMPDQOnBCube(t *testing.T) {
	// §6: a single flow between far-apart BCube hosts; M-PDQ with 4
	// subflows must at least match single-path PDQ, and complete.
	run := func(sub int) sim.Time {
		tp := topo.BCube(2, 3, 1)
		cfg := Full()
		cfg.Subflows = sub
		rs := runFlows(t, tp, cfg, []workload.Flow{flow(1, 0, 15, 2<<20, 0, 0)}, sim.Second)
		if !rs[0].Done() {
			t.Fatalf("subflows=%d: flow incomplete", sub)
		}
		return rs[0].FCT()
	}
	single := run(1)
	multi := run(4)
	if multi > single+single/10 {
		t.Errorf("M-PDQ FCT %v worse than single-path %v", multi, single)
	}
}

func TestVariantNames(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Basic(), "PDQ(Basic)"},
		{ES(), "PDQ(ES)"},
		{ESET(), "PDQ(ES+ET)"},
		{Full(), "PDQ(Full)"},
	}
	for _, c := range cases {
		tp := topo.SingleBottleneck(1, 1)
		if got := Install(tp, c.cfg).Name(); got != c.want {
			t.Errorf("Name = %q, want %q", got, c.want)
		}
	}
	tp := topo.BCube(2, 1, 1)
	cfg := Full()
	cfg.Subflows = 3
	if got := Install(tp, cfg).Name(); got != "M-PDQ(3)" {
		t.Errorf("Name = %q", got)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []workload.Result {
		tp := topo.SingleRootedTree(4, 3, 5)
		g := workload.NewGen(5, workload.UniformMean(100<<10), 20*sim.Millisecond)
		flows := g.Batch(15, workload.Aggregation{}, 12, nil, 0)
		return runFlows(t, tp, Full(), flows, sim.Second)
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Finish != b[i].Finish || a[i].Terminated != b[i].Terminated {
			t.Fatalf("nondeterministic result for flow %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestComparatorOverride(t *testing.T) {
	// §3.3: the operator can override the comparator. Invert SJF (largest
	// flow first) and verify the service order flips accordingly.
	mk := func(cfg Config) []workload.Result {
		tp := topo.SingleBottleneck(2, 1)
		return runFlows(t, tp, cfg, []workload.Flow{
			flow(1, 0, 2, 100<<10, 0, 0),
			flow(2, 1, 2, 1<<20, 0, 0),
		}, sim.Second)
	}
	// Default: short first.
	def := mk(Full())
	if def[0].Finish >= def[1].Finish {
		t.Fatal("default comparator should finish the short flow first")
	}
	// Longest-job-first override.
	cfg := Full()
	cfg.Less = func(a, b Criticality) bool {
		if a.TTrans != b.TTrans {
			return a.TTrans > b.TTrans
		}
		return a.Key.id < b.Key.id
	}
	ljf := mk(cfg)
	if !ljf[0].Done() || !ljf[1].Done() {
		t.Fatal("flows incomplete under override")
	}
	if ljf[1].Finish >= ljf[0].Finish {
		t.Errorf("LJF override: long flow should finish first (long %v, short %v)", ljf[1].Finish, ljf[0].Finish)
	}
}
