// Package pdq's root benchmark harness: one testing.B benchmark per
// table/figure of the paper's evaluation section, each regenerating the
// figure's data at reduced (Quick) scale via the drivers in internal/exp.
// Run the full-scale versions with cmd/pdqsim.
//
//	go test -bench=. -benchmem
package pdq

import (
	"os"
	"testing"

	"pdq/internal/exp"
	"pdq/internal/flowsim"
	"pdq/internal/netsim"
	"pdq/internal/obsv"
	"pdq/internal/scenario"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

// benchFig runs one figure driver per iteration and keeps the resulting
// table alive so the work is not elided.
func benchFig(b *testing.B, name string) {
	b.Helper()
	fig, ok := exp.Figures[name]
	if !ok {
		b.Fatalf("unknown figure %s", name)
	}
	b.ReportAllocs()
	var sink *scenario.Table
	for i := 0; i < b.N; i++ {
		sink = fig(scenario.Opts{Quick: true, Seed: int64(i + 1)})
	}
	if sink == nil || len(sink.Rows) == 0 {
		b.Fatal("empty result table")
	}
}

// Fig. 1: motivating example (fluid model).
func BenchmarkFig1(b *testing.B) { benchFig(b, "fig1") }

// Fig. 3a: app throughput vs number of deadline flows (packet level).
func BenchmarkFig3a(b *testing.B) { benchFig(b, "fig3a") }

// Fig. 3b: app throughput vs mean flow size.
func BenchmarkFig3b(b *testing.B) { benchFig(b, "fig3b") }

// Fig. 3c: flows sustained at 99% app throughput vs mean deadline.
func BenchmarkFig3c(b *testing.B) { benchFig(b, "fig3c") }

// Fig. 3d: mean FCT (normalized to optimal) vs number of flows.
func BenchmarkFig3d(b *testing.B) { benchFig(b, "fig3d") }

// Fig. 3e: mean FCT (normalized to optimal) vs flow size.
func BenchmarkFig3e(b *testing.B) { benchFig(b, "fig3e") }

// Fig. 4a: flows at 99% app throughput across sending patterns.
func BenchmarkFig4a(b *testing.B) { benchFig(b, "fig4a") }

// Fig. 4b: mean FCT across sending patterns.
func BenchmarkFig4b(b *testing.B) { benchFig(b, "fig4b") }

// Fig. 5a: sustainable arrival rate under the VL2-like workload.
func BenchmarkFig5a(b *testing.B) { benchFig(b, "fig5a") }

// Fig. 5b: long-flow FCT under the VL2-like workload.
func BenchmarkFig5b(b *testing.B) { benchFig(b, "fig5b") }

// Fig. 5c: FCT under the EDU1-like workload.
func BenchmarkFig5c(b *testing.B) { benchFig(b, "fig5c") }

// Fig. 6: convergence dynamics (seamless flow switching).
func BenchmarkFig6(b *testing.B) { benchFig(b, "fig6") }

// Fig. 7: robustness to a 50-flow burst.
func BenchmarkFig7(b *testing.B) { benchFig(b, "fig7") }

// Fig. 8a: deadline scale sweep on fat-trees (pkt + flow level).
func BenchmarkFig8a(b *testing.B) { benchFig(b, "fig8a") }

// Fig. 8b: FCT scale sweep on fat-trees.
func BenchmarkFig8b(b *testing.B) { benchFig(b, "fig8b") }

// Fig. 8c: FCT scale sweep on BCube.
func BenchmarkFig8c(b *testing.B) { benchFig(b, "fig8c") }

// Fig. 8d: FCT scale sweep on Jellyfish.
func BenchmarkFig8d(b *testing.B) { benchFig(b, "fig8d") }

// Fig. 8e: per-flow CDF of RCP/PDQ FCT ratios.
func BenchmarkFig8e(b *testing.B) { benchFig(b, "fig8e") }

// Fig. 9a: deadline resilience to packet loss.
func BenchmarkFig9a(b *testing.B) { benchFig(b, "fig9a") }

// Fig. 9b: FCT resilience to packet loss.
func BenchmarkFig9b(b *testing.B) { benchFig(b, "fig9b") }

// Fig. 10: inaccurate flow information (flow level).
func BenchmarkFig10(b *testing.B) { benchFig(b, "fig10") }

// Fig. 11a: M-PDQ vs PDQ under varying load on BCube.
func BenchmarkFig11a(b *testing.B) { benchFig(b, "fig11a") }

// Fig. 11b: M-PDQ FCT vs subflow count.
func BenchmarkFig11b(b *testing.B) { benchFig(b, "fig11b") }

// Fig. 11c: deadline M-PDQ vs subflow count.
func BenchmarkFig11c(b *testing.B) { benchFig(b, "fig11c") }

// Fig. 12: flow aging (flow level).
func BenchmarkFig12(b *testing.B) { benchFig(b, "fig12") }

// benchScenarioFile runs a shipped example scenario at Quick scale per
// iteration — the same spec-compile-execute path `pdqsim -scenario`
// takes, so the JSON files cannot bit-rot out of the perf record.
func benchScenarioFile(b *testing.B, path string) {
	b.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := scenario.Load(data)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var sink *scenario.Table
	for i := 0; i < b.N; i++ {
		sink = scenario.MustRun(spec, scenario.Opts{Quick: true, Seed: int64(i + 1)})
	}
	if sink == nil || len(sink.Rows) == 0 {
		b.Fatal("empty result table")
	}
}

// DCTCP incast sweep (examples/scenarios/dctcp-incast.json): the
// ECN-FIFO qdisc rides the link's timestamp serializer, so this prices
// the marking hook at figure scale.
func BenchmarkDCTCPIncast(b *testing.B) {
	benchScenarioFile(b, "examples/scenarios/dctcp-incast.json")
}

// pFabric websearch sweep (examples/scenarios/pfabric-websearch.json):
// the strict-priority qdisc runs the link's scheduler path (two events
// per packet), so this prices priority dequeue at figure scale.
func BenchmarkPFabricWebsearch(b *testing.B) {
	benchScenarioFile(b, "examples/scenarios/pfabric-websearch.json")
}

// BenchmarkShardedFatTree measures single-run parallelism (DESIGN.md §12)
// on the fat-tree k=16 permutation scenario: the same simulation at 1, 2,
// 4 and 8 engine shards, plus the timer-wheel backend at 8. Output is
// byte-identical at every variant (the shard golden tests pin it); only
// wall clock may differ, and the shards=8/shards=1 ratio is the PR-8
// acceptance number.
func BenchmarkShardedFatTree(b *testing.B) {
	data, err := os.ReadFile("examples/scenarios/fattree-k16-sharded.json")
	if err != nil {
		b.Fatal(err)
	}
	spec, err := scenario.Load(data)
	if err != nil {
		b.Fatal(err)
	}
	for _, v := range []struct {
		name   string
		shards int
		sched  string
	}{
		{"shards=1", 1, "heap"},
		{"shards=2", 2, "heap"},
		{"shards=4", 4, "heap"},
		{"shards=8", 8, "heap"},
		{"shards=8/wheel", 8, "wheel"},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink *scenario.Table
			for i := 0; i < b.N; i++ {
				sink = scenario.MustRun(spec, scenario.Opts{Quick: true, Seed: 1,
					Parallel: 1, Shards: v.shards, Sched: v.sched})
			}
			if sink == nil || len(sink.Rows) == 0 {
				b.Fatal("empty result table")
			}
		})
	}
}

// BenchmarkShardedPDQ prices the widened sharding eligibility (DESIGN.md
// §14): PDQ(Full) on a fat-tree k=8 permutation at one and eight engine
// shards, plus the eight-shard cell with telemetry attached (per-shard
// probers, deferred flow records) and with per-link random loss (each
// link's private RNG stream). Tables are byte-identical across shard
// counts of the same variant — the shard golden tests pin that — so the
// matrix prices pure coordination and telemetry overhead on the
// flow-list protocol path.
func BenchmarkShardedPDQ(b *testing.B) {
	spec := func(lossy bool) *scenario.Spec {
		s := &scenario.Spec{
			Name:     "sharded-pdq-bench",
			Topology: scenario.TopoSpec{Name: "fat-tree", Params: map[string]float64{"k": 8}},
			Workload: scenario.WorkloadSpec{
				Pattern: scenario.PatternSpec{Name: "permutation"},
				Sizes:   scenario.DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 50}},
				Count:   128,
			},
			Protocols: []scenario.ProtoSpec{{Runner: "PDQ(Full)"}},
			Metric:    scenario.MetricSpec{Name: "mean-fct"},
			HorizonMs: 500,
		}
		if lossy {
			s.Topology.Loss = &scenario.LossSpec{Host: -1, Rate: 0.02}
		}
		return s
	}
	for _, v := range []struct {
		name   string
		shards int
		traced bool
		lossy  bool
	}{
		{"shards=1", 1, false, false},
		{"shards=8", 8, false, false},
		{"traced/shards=8", 8, true, false},
		{"lossy/shards=8", 8, false, true},
	} {
		v := v
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			s := spec(v.lossy)
			var sink *scenario.Table
			for i := 0; i < b.N; i++ {
				o := scenario.Opts{Quick: true, Seed: 1, Parallel: 1, Shards: v.shards}
				if v.traced {
					o.Trace = trace.New(true, true)
				}
				sink = scenario.MustRun(s, o)
			}
			if sink == nil || len(sink.Rows) == 0 {
				b.Fatal("empty result table")
			}
		})
	}
}

// Parallel-vs-serial benches for the sweep executor (internal/exp/sweep.go):
// the same figure grid at 1 worker and at one worker per core. The ratio
// is the executor's wall-clock win on that figure's trial grid.
func BenchmarkSweepExecutor(b *testing.B) {
	for _, fig := range []string{"fig3a", "fig3c", "fig8b"} {
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(fig+"/"+mode.name, func(b *testing.B) {
				var sink *scenario.Table
				for i := 0; i < b.N; i++ {
					sink = exp.Figures[fig](scenario.Opts{Quick: true, Seed: 1, Parallel: mode.workers})
				}
				if sink == nil || len(sink.Rows) == 0 {
					b.Fatal("empty result table")
				}
			})
		}
	}
}

// Ablation benches for the design choices called out in DESIGN.md: the
// cost of each PDQ feature is visible as the runtime/allocation delta of
// the same workload under each variant (the result quality deltas are in
// fig3a/3c).
func BenchmarkAblationPDQVariants(b *testing.B) {
	for _, v := range []string{"PDQ(Basic)", "PDQ(ES)", "PDQ(ES+ET)", "PDQ(Full)"} {
		v := v
		b.Run(v, func(b *testing.B) {
			r, err := scenario.MakeRunner(v, nil, scenario.DefaultSeed)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				runAblation(b, r)
			}
		})
	}
}

func runAblation(b *testing.B, r scenario.RunnerFunc) {
	b.Helper()
	g := workload.NewGen(1, workload.UniformMean(100<<10), workload.MeanDeadlineDflt)
	flows := g.Batch(12, workload.Aggregation{}, 12, nil, 0)
	rs := r(func() *topo.Topology { return topo.SingleRootedTree(4, 3, 1) }, flows,
		scenario.RunCtx{Horizon: 500 * sim.Millisecond})
	if len(rs) != 12 {
		b.Fatalf("got %d results", len(rs))
	}
}

// BenchmarkTraceSinkOverhead measures the telemetry subsystem's cost on a
// full figure sweep: "off" is the default nil-sink path, whose timings
// must stay within noise of BenchmarkFig3a (the acceptance bound is ≤2%
// slowdown — the hot loops only ever see a nil check per flow
// completion); "on" captures per-flow records through a per-iteration
// Trace and prices the fully-enabled record path.
func BenchmarkTraceSinkOverhead(b *testing.B) {
	for _, mode := range []struct {
		name   string
		traced bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink *scenario.Table
			for i := 0; i < b.N; i++ {
				o := scenario.Opts{Quick: true, Seed: int64(i + 1)}
				if mode.traced {
					o.Trace = trace.New(true, false)
				}
				sink = exp.Figures["fig3a"](o)
			}
			if sink == nil || len(sink.Rows) == 0 {
				b.Fatal("empty result table")
			}
		})
	}
}

// BenchmarkObsvOverhead prices the observability plane the same way:
// "off" is the default nil-Observer path, where every instrumentation
// site reduces to a single nil check (the benchmark's obsv.on_ratio is the
// standing number); "on" runs the same sweep with the full metrics
// registry attached — engine counters, queue high-water tracking, the
// sweep cell state machine and its wall-clocked duration histogram.
func BenchmarkObsvOverhead(b *testing.B) {
	for _, mode := range []struct {
		name     string
		observed bool
	}{{"off", false}, {"on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink *scenario.Table
			for i := 0; i < b.N; i++ {
				o := scenario.Opts{Quick: true, Seed: int64(i + 1)}
				if mode.observed {
					o.Obs = obsv.New(obsv.WallClock)
				}
				sink = exp.Figures["fig3a"](o)
			}
			if sink == nil || len(sink.Rows) == 0 {
				b.Fatal("empty result table")
			}
		})
	}
}

// Engine micro-benches: the pooled indexed-heap event queue on its own.
// After warmup, schedule/fire and schedule/cancel cycles must not allocate
// (allocs/op = 0); the figure-level benches above show the same effect in
// context.

// BenchmarkEngineScheduleFire measures a self-rescheduling event chain —
// the pacing pattern every sender uses — through 1024 schedule/fire cycles
// per iteration.
func BenchmarkEngineScheduleFire(b *testing.B) {
	s := sim.New()
	n := 0
	var fn func()
	fn = func() {
		if n++; n%1024 != 0 {
			s.After(5, fn)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(1, fn)
		s.Run()
	}
	if n != 1024*b.N {
		b.Fatalf("ran %d events, want %d", n, 1024*b.N)
	}
}

// BenchmarkEngineScheduleCancel measures the retransmission-timer pattern:
// arm a far-out event, cancel and rearm it, interleaved with near events
// that keep the heap busy.
func BenchmarkEngineScheduleCancel(b *testing.B) {
	s := sim.New()
	nop := func() {}
	var refs [64]sim.EventRef
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for j := range refs {
			refs[j] = s.After(sim.Time(1000+j), nop)
		}
		for j := range refs {
			if !s.Cancel(refs[j]) {
				b.Fatal("cancel failed")
			}
		}
		s.After(1, nop)
		s.Run()
	}
}

// BenchmarkFlowAllocators measures one Allocate step of each flow-level
// allocator over a fat-tree with 128 active flows — the inner loop of the
// Fig. 8/10/12 sweeps. With the dense scratch workspace the steady state
// allocates nothing.
func BenchmarkFlowAllocators(b *testing.B) {
	tp := topo.FatTree(8, 1)
	g := workload.NewGen(3, workload.UniformMean(1<<20), workload.MeanDeadlineDflt)
	flows := g.Batch(128, workload.Permutation{}, len(tp.Hosts), nil, 0)
	var states []*flowsim.FlowState
	for _, f := range flows {
		states = append(states, &flowsim.FlowState{
			Flow:      f,
			Path:      tp.Path(tp.Hosts[f.Src], tp.Hosts[f.Dst]),
			Remaining: float64(f.Size),
		})
	}
	capFn := func(l *netsim.Link) float64 { return float64(l.Rate) }
	for _, alloc := range []flowsim.Allocator{
		flowsim.NewPDQ(flowsim.CritPerfect, 1), flowsim.NewRCP(), flowsim.NewD3(),
	} {
		alloc := alloc
		b.Run(alloc.Name(), func(b *testing.B) {
			alloc.Allocate(0, states, capFn) // warm the scratch
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				alloc.Allocate(0, states, capFn)
			}
		})
	}
}

// BenchmarkFlowSimRun measures the real mix BenchmarkFlowAllocators
// leaves out: a whole flow-level run — 320 permutation flows on a k=8
// fat-tree with staggered starts — so every Allocate sees a flow set that
// differs from the last by an arrival or a completion, the order lists
// are repaired rather than found sorted, and set-up (paths, flow states,
// a fresh allocator) is on the clock as it is in a sweep cell.
func BenchmarkFlowSimRun(b *testing.B) {
	tp := topo.FatTree(8, 1)
	g := workload.NewGen(3, workload.UniformMean(100<<10), workload.MeanDeadlineDflt)
	flows := g.Batch(320, workload.Permutation{}, len(tp.Hosts), nil, 0)
	for i := range flows {
		flows[i].Start = sim.Time(i) * 20 * sim.Microsecond
	}
	for _, mk := range []func() flowsim.Allocator{
		func() flowsim.Allocator { return flowsim.NewPDQ(flowsim.CritPerfect, 1) },
		func() flowsim.Allocator { return flowsim.NewRCP() },
		func() flowsim.Allocator { return flowsim.NewD3() },
	} {
		b.Run(mk().Name(), func(b *testing.B) {
			b.ReportAllocs()
			done := 0
			for i := 0; i < b.N; i++ {
				s := flowsim.New(tp, mk())
				for _, f := range flows {
					s.Start(f)
				}
				s.Run(2 * sim.Second)
				for _, r := range s.Results() {
					if r.Done() {
						done++
					}
				}
			}
			if done == 0 {
				b.Fatal("no flow finished")
			}
		})
	}
}
