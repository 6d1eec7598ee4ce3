// Registered custom scenario drivers: the handful of paper scenarios
// that are not protocol × sweep-point grids — the fluid motivating
// example (Fig. 1), the single-run dynamics traces with utilization and
// queue probes (Fig. 6, Fig. 7), and the paired-run FCT-ratio CDF
// (Fig. 8e). Specs select them by Driver name and configure them through
// Params/QuickParams.

package scenario

import (
	"fmt"
	"sort"
	"strings"

	"pdq/internal/core"
	"pdq/internal/fluid"
	"pdq/internal/netsim"
	"pdq/internal/params"
	"pdq/internal/sim"
	"pdq/internal/stats"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

func init() {
	RegisterDriver(DriverEntry{
		Name: "fluid-example",
		Doc:  "Fig. 1 motivating example: three deadline flows on a unit bottleneck under fair sharing, SJF/EDF and D3 (fluid model)",
		Fn:   runFluidExample,
	})
	RegisterDriver(DriverEntry{
		Name:   "convergence-trace",
		Doc:    "Fig. 6 convergence dynamics: `flows` equal flows start together on one bottleneck; reports completions, utilization, queue, drops",
		Params: map[string]float64{"flows": 5, "size_mb": 1},
		Check:  minBytes(map[string]float64{"size_mb": 1}),
		Fn:     runConvergenceTrace,
	})
	RegisterDriver(DriverEntry{
		Name:   "burst-trace",
		Doc:    "Fig. 7 burst robustness: `shorts` short flows preempt a long-lived flow at t=10 ms",
		Params: map[string]float64{"shorts": 50, "short_kb": 20, "long_mb": 20},
		// Shorts draw from short_kb ± 1 KB.
		Check: minBytes(map[string]float64{"short_kb": 1<<10 + 1, "long_mb": 1}),
		Fn:    runBurstTrace,
	})
	RegisterDriver(DriverEntry{
		Name:   "fct-ratio-cdf",
		Doc:    "Fig. 8e: per-flow CDF of RCP FCT / PDQ FCT on a fat-tree (flow level, paired runs)",
		Params: map[string]float64{"k": 8, "flows_per": 10},
		Fn:     runFCTRatioCDF,
	})
	RegisterFlowGen(FlowGenEntry{
		Name:     "long-vs-shorts",
		Doc:      "Fig. 12 contention: one `long_mb` flow from host 0 plus `shorts` `short_kb` flows arriving every `spacing_ms` from the remaining senders",
		Params:   map[string]float64{"shorts": 100, "short_kb": 100, "long_mb": 2, "spacing_ms": 1},
		MinHosts: 3, // host 0 sends the long flow, the last host receives, the rest send shorts
		Check:    minBytes(map[string]float64{"short_kb": 1, "long_mb": 1}),
		Gen: func(p map[string]float64, hosts int, _ int64) []workload.Flow {
			dst := hosts - 1
			fl := []workload.Flow{{ID: 1, Src: 0, Dst: dst, Size: sizeBytes(p, "long_mb")}}
			for i := 0; i < int(p["shorts"]); i++ {
				fl = append(fl, workload.Flow{
					ID: uint64(i + 2), Src: 1 + i%(hosts-2), Dst: dst,
					Size:  sizeBytes(p, "short_kb"),
					Start: sim.Time(float64(i) * p["spacing_ms"] * float64(sim.Millisecond)),
				})
			}
			return fl
		},
	})
}

// sizeBytes converts a size parameter named *_kb or *_mb to bytes. It
// scales before it truncates, so a fractional value keeps its bytes.
func sizeBytes(p map[string]float64, key string) int64 {
	unit := float64(1 << 10)
	if strings.HasSuffix(key, "_mb") {
		unit = 1 << 20
	}
	return int64(p[key] * unit)
}

// minBytes returns an entry Check that wants every named size parameter
// to come to at least that many bytes.
func minBytes(min map[string]float64) func(p map[string]float64) error {
	return func(p map[string]float64) error {
		for _, key := range params.SortedKeys(min) {
			if n := sizeBytes(p, key); n < int64(min[key]) {
				return fmt.Errorf("parameter %q = %v is %d bytes: want at least %d", key, p[key], n, int64(min[key]))
			}
		}
		return nil
	}
}

// runFluidExample reproduces the motivating example (Fig. 1): three flows
// of sizes 1, 2, 3 units with deadlines 1, 4, 6 on one unit-rate
// bottleneck, under fair sharing, SJF/EDF, and D3 with arrival order fB,
// fA, fC.
func runFluidExample(s *Spec, _ map[string]float64, _ Opts) (*Table, error) {
	unit := int64(1_000_000_000 / 8)
	flows := []workload.Flow{
		{ID: 1, Size: 1 * unit, Deadline: 1 * sim.Second},
		{ID: 2, Size: 2 * unit, Deadline: 4 * sim.Second},
		{ID: 3, Size: 3 * unit, Deadline: 6 * sim.Second},
	}
	bps := int64(1_000_000_000)
	t := &Table{
		Name: s.Name, Desc: s.Desc,
		Cols: []string{"fA", "fB", "fC", "meanFCT", "met"},
	}
	add := func(label string, c fluid.Completion) {
		met := 0.0
		for _, f := range flows {
			if ct, ok := c[f.ID]; ok && ct <= f.Deadline {
				met++
			}
		}
		t.Rows = append(t.Rows, Row{Label: label, Vals: []float64{
			c[1].Seconds(), c[2].Seconds(), c[3].Seconds(),
			fluid.MeanFCT(flows, c), met,
		}})
	}
	add("FairSharing", fluid.FairShare(flows, bps))
	add("SJF/EDF", fluid.SRPT(flows, bps))
	// D3 with arrival order fB, fA, fC (Fig. 1d): fB reserves 0.5, fA is
	// stuck with the remaining 0.5 and misses. Fluid D3 on one link.
	d3c := fluid.Completion{}
	// fB: rate 2/4 = 0.5 until t=4 (done exactly at its deadline).
	d3c[2] = 4 * sim.Second
	// fA: leftover 0.5 for 1 unit: finishes at 2 > deadline 1.
	d3c[1] = 2 * sim.Second
	// fC: after fB and fA it has the full link: 3 units from its share.
	// Between 0–2: fC gets 0; 2–4: 0.5; 4–6: 1.0 → 3 units by t=6.
	d3c[3] = 6 * sim.Second
	add("D3(fB;fA;fC)", d3c)
	return t, nil
}

// utilProbe samples a link's delivered throughput as percent of capacity
// over each probe period.
func utilProbe(tp *topo.Topology, l *netsim.Link, period sim.Duration) *stats.Probe {
	var lastTx uint64
	secs := float64(period) / float64(sim.Second)
	return stats.NewProbe(tp.Sim(), period, func() float64 {
		cur := l.TxBytes()
		d := cur - lastTx
		lastTx = cur
		return float64(d*8) / (float64(l.Rate) * secs) * 100
	})
}

// queueProbe samples a link's queue depth in packets.
func queueProbe(tp *topo.Topology, l *netsim.Link, period sim.Duration) *stats.Probe {
	return stats.NewProbe(tp.Sim(), period, func() float64 {
		return float64(l.QueueBytes()) / float64(netsim.MTU)
	})
}

// runConvergenceTrace reproduces the convergence-dynamics scenario (§5.4
// scenario 1): `flows` ~equal flows start together on one bottleneck; PDQ
// should serve them sequentially with seamless switching, ~100%
// bottleneck utilization and a small queue.
func runConvergenceTrace(s *Spec, p map[string]float64, _ Opts) (*Table, error) {
	n := int(p["flows"])
	size := sizeBytes(p, "size_mb")
	tp := topo.SingleBottleneck(n, 1)
	sys := core.Install(tp, core.Full())
	for i := 0; i < n; i++ {
		sys.Start(workload.Flow{ID: uint64(i + 1), Src: i, Dst: n, Size: size + int64(i)*100})
	}
	bott := tp.Hosts[n].Access.Peer // switch→receiver

	util := utilProbe(tp, bott, 500*sim.Microsecond)
	queue := queueProbe(tp, bott, 500*sim.Microsecond)
	tp.Sim().RunUntil(100 * sim.Millisecond)

	t := &Table{Name: s.Name, Desc: s.Desc}
	t.Cols = []string{"value"}
	var last sim.Time
	for i, r := range sys.Results() {
		if r.Done() && r.Finish > last {
			last = r.Finish
		}
		t.Rows = append(t.Rows, Row{Label: fmt.Sprintf("flow%d completion [ms]", i+1), Vals: []float64{r.Finish.Millis()}})
	}
	t.Rows = append(t.Rows,
		Row{Label: "all done [ms]", Vals: []float64{last.Millis()}},
		Row{Label: "utilization 5-40ms [%]", Vals: []float64{util.MeanOver(5*sim.Millisecond, 40*sim.Millisecond)}},
		Row{Label: "max queue [pkts]", Vals: []float64{stats.Max(queue.V)}},
		Row{Label: "drops", Vals: []float64{float64(bott.Drops())}},
	)
	return t, nil
}

// runBurstTrace reproduces the burst-robustness scenario (§5.4 scenario
// 2): a long-lived flow is preempted at t=10 ms by `shorts` short flows;
// PDQ should absorb the burst at high utilization with a small queue.
func runBurstTrace(s *Spec, p map[string]float64, o Opts) (*Table, error) {
	nShort := int(p["shorts"])
	tp := topo.SingleBottleneck(nShort+1, 1)
	recv := nShort + 1
	sys := core.Install(tp, core.Full())
	sys.Start(workload.Flow{ID: 100000, Src: 0, Dst: recv, Size: sizeBytes(p, "long_mb")}) // long-lived
	short := sizeBytes(p, "short_kb")
	g := workload.NewGen(o.seed(), workload.Uniform{Lo: short - 1<<10, Hi: short + 1<<10}, 0)
	for i := 0; i < nShort; i++ {
		f := g.Flow(1+i, recv, 10*sim.Millisecond)
		sys.Start(f)
	}
	bott := tp.Hosts[recv].Access.Peer
	util := utilProbe(tp, bott, 500*sim.Microsecond)
	queue := queueProbe(tp, bott, 200*sim.Microsecond)
	tp.Sim().RunUntil(400 * sim.Millisecond)

	rs := sys.Results()
	var lastShort sim.Time
	shortsDone := 0
	for _, r := range rs[1:] {
		if r.Done() {
			shortsDone++
			if r.Finish > lastShort {
				lastShort = r.Finish
			}
		}
	}
	preemptEnd := lastShort
	t := &Table{Name: s.Name, Desc: s.Desc}
	t.Cols = []string{"value"}
	t.Rows = append(t.Rows,
		Row{Label: "shorts completed", Vals: []float64{float64(shortsDone)}},
		Row{Label: "shorts done by [ms]", Vals: []float64{lastShort.Millis()}},
		Row{Label: "util during preemption [%]", Vals: []float64{util.MeanOver(10*sim.Millisecond, preemptEnd)}},
		Row{Label: "max queue [pkts]", Vals: []float64{stats.Max(queue.V)}},
		Row{Label: "long flow FCT [ms]", Vals: []float64{rs[0].Finish.Millis()}},
		Row{Label: "drops", Vals: []float64{float64(bott.Drops())}},
	)
	return t, nil
}

// runFCTRatioCDF reproduces Fig. 8e: the per-flow CDF of RCP FCT / PDQ
// FCT at ~k³/4 servers (flow-level, random permutation). Each replicate
// is one paired PDQ/RCP run over the same flow set; the pairs fan out
// over Gather and Opts.Trials is honored by summarizing the
// per-replicate CDF statistics.
func runFCTRatioCDF(s *Spec, p map[string]float64, o Opts) (*Table, error) {
	k := int(p["k"])
	flowsPer := int(p["flows_per"])
	hosts := k * k * k / 4
	kTrials := o.trials()
	fns := make([]func() []workload.Result, 0, 2*kTrials)
	for r := 0; r < kTrials; r++ {
		seed := o.seed() + int64(r)*TrialSeedStride
		g := workload.NewGen(seed, workload.UniformMean(100<<10), 0)
		flows := g.Batch(flowsPer*hosts, workload.Permutation{}, hosts, nil, 0)
		build := func() *topo.Topology { return topo.FatTree(k, seed) }
		pdqRun, err := MakeRunner("flow:PDQ", nil, seed)
		if err != nil {
			return nil, err
		}
		rcpRun, err := MakeRunner("flow:RCP", nil, seed)
		if err != nil {
			return nil, err
		}
		fns = append(fns,
			func() []workload.Result { return pdqRun(build, flows, RunCtx{Horizon: 20 * sim.Second}) },
			func() []workload.Result { return rcpRun(build, flows, RunCtx{Horizon: 20 * sim.Second}) })
	}
	runs := Gather(o.workers(), fns)
	labels := []string{
		"flows",
		"% with ratio >= 2 (PDQ 2x faster)",
		"% with ratio < 1 (PDQ slower)",
		"% with ratio < 0.5",
		"median ratio",
		"worst PDQ inflation",
	}
	summaries := make([][]float64, kTrials)
	for rep := 0; rep < kTrials; rep++ {
		pdq, rcp := runs[2*rep], runs[2*rep+1]
		var ratios []float64
		for i := range pdq {
			if pdq[i].Done() && rcp[i].Done() {
				ratios = append(ratios, rcp[i].FCT().Seconds()/pdq[i].FCT().Seconds())
			}
		}
		sort.Float64s(ratios)
		frac := func(pred func(float64) bool) float64 {
			if len(ratios) == 0 {
				return 0 // no paired completions: report 0%, not NaN
			}
			n := 0
			for _, r := range ratios {
				if pred(r) {
					n++
				}
			}
			return 100 * float64(n) / float64(len(ratios))
		}
		worstInflation := 0.0
		for _, r := range ratios {
			if inv := 1 / r; inv > worstInflation {
				worstInflation = inv
			}
		}
		summaries[rep] = []float64{
			float64(len(ratios)),
			frac(func(r float64) bool { return r >= 2 }),
			frac(func(r float64) bool { return r < 1 }),
			frac(func(r float64) bool { return r < 0.5 }),
			stats.PercentileSorted(ratios, 50),
			worstInflation,
		}
	}
	t := &Table{Name: s.Name, Desc: s.Desc, Cols: []string{"value"}}
	for i, label := range labels {
		xs := make([]float64, kTrials)
		for rep := range summaries {
			xs[rep] = summaries[rep][i]
		}
		t.Rows = append(t.Rows, statRow(label, []Stat{summarize(xs)}, o))
	}
	return t, nil
}
