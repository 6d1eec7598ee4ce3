package scenario

import (
	"strings"
	"testing"

	"pdq/internal/core"
	"pdq/internal/fault"
	"pdq/internal/obsv"
	"pdq/internal/protocol"
	"pdq/internal/topo"
	"pdq/internal/trace"
)

// shardedSpec is a multi-rack packet-level cell whose traffic crosses
// shard boundaries: a fat-tree with permutation traffic, so every flow
// traverses at least one inter-switch link.
func shardedSpec(runner string) *Spec {
	return &Spec{
		Name:     "shard-test",
		Topology: TopoSpec{Name: "fat-tree", Params: map[string]float64{"k": 4}},
		Workload: WorkloadSpec{
			Pattern: PatternSpec{Name: "permutation"},
			Sizes:   DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 30}},
			Count:   16,
		},
		Protocols: []ProtoSpec{{Runner: runner}},
		Metric:    MetricSpec{Name: "mean-fct"},
		HorizonMs: 500,
	}
}

// TestShardGoldenAcrossShardCounts pins the central determinism claim of
// DESIGN.md §12: a shard-safe cell renders byte-identically at any shard
// count, including against the unsharded single-engine path (shards 1).
// PDQ rides along since its switch state partitions by link ownership and
// its completion accounting merges per endpoint (DESIGN.md §14).
func TestShardGoldenAcrossShardCounts(t *testing.T) {
	for _, runner := range []string{"TCP", "DCTCP", "pFabric", "PDQ(Full)", "PDQ(Basic)"} {
		t.Run(runner, func(t *testing.T) {
			var golden string
			for _, shards := range []int{1, 2, 4, 8} {
				tab, err := Run(shardedSpec(runner), Opts{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				if tab.Partial() {
					t.Fatalf("shards=%d: partial table:\n%s", shards, tab)
				}
				got := tab.String()
				if shards == 1 {
					golden = got
					continue
				}
				if got != golden {
					t.Errorf("shards=%d diverges from shards=1:\n--- shards=1\n%s\n--- shards=%d\n%s",
						shards, golden, shards, got)
				}
			}
		})
	}
}

// TestShardGoldenFaulted extends the byte-identity pin to a faulted
// cell: the static down-window timeline (fault.applySharded) must drop
// and recover exactly the packets the legacy event path does.
func TestShardGoldenFaulted(t *testing.T) {
	spec := func() *Spec {
		s := shardedSpec("TCP")
		s.Faults = []FaultSpec{{Kind: "link-down", Host: -1, DownMs: 1, UpMs: 5}}
		return s
	}
	var golden string
	for _, shards := range []int{1, 2, 4, 8} {
		tab, err := Run(spec(), Opts{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		got := tab.String()
		if shards == 1 {
			golden = got
			continue
		}
		if got != golden {
			t.Errorf("faulted shards=%d diverges from shards=1:\n--- shards=1\n%s\n--- shards=%d\n%s",
				shards, golden, shards, got)
		}
	}
}

// TestWheelMatchesHeap pins that the timer-wheel backend reproduces the
// heap's tables byte-for-byte, sharded or not: the wheel preserves exact
// (time, seq) firing order, so it must be invisible in results.
func TestWheelMatchesHeap(t *testing.T) {
	for _, shards := range []int{1, 4} {
		heap, err := Run(shardedSpec("TCP"), Opts{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		wheel, err := Run(shardedSpec("TCP"), Opts{Shards: shards, Sched: "wheel"})
		if err != nil {
			t.Fatal(err)
		}
		if heap.String() != wheel.String() {
			t.Errorf("shards=%d: wheel diverges from heap:\n--- heap\n%s\n--- wheel\n%s",
				shards, heap, wheel)
		}
	}
}

// TestShardUnsafeRunnerFallsBack pins that a runner without the
// shard-safe contract ignores the shard count entirely: D3 is not
// marked shard-safe, so it must run the single engine and match.
func TestShardUnsafeRunnerFallsBack(t *testing.T) {
	plain, err := Run(shardedSpec("D3"), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(shardedSpec("D3"), Opts{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != sharded.String() {
		t.Errorf("shard-unsafe runner changed output under -shards 8:\n--- plain\n%s\n--- sharded\n%s",
			plain, sharded)
	}
}

// TestShardGoldenTraced pins that telemetry no longer forces the single
// engine: a traced PDQ cell shards, and its table, per-flow records and
// probe series all render byte-identically at any shard count
// (DESIGN.md §14: deferred record emission, per-shard link probers, the
// active-flow series cut at barrier windows).
func TestShardGoldenTraced(t *testing.T) {
	render := func(shards int) string {
		tr := trace.New(true, true)
		tab, err := Run(shardedSpec("PDQ(Full)"), Opts{Shards: shards, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		b.WriteString(tab.String())
		if err := tr.WriteFlows(&b); err != nil {
			t.Fatal(err)
		}
		if err := tr.WriteProbes(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	golden := render(1)
	if !strings.Contains(golden, "active-flows") {
		t.Fatal("traced run produced no probe series")
	}
	for _, shards := range []int{2, 4, 8} {
		if got := render(shards); got != golden {
			t.Errorf("traced cell at shards=%d diverges from shards=1:\n--- shards=1\n%s\n--- shards=%d\n%s",
				shards, golden, shards, got)
		}
	}
}

// TestShardGoldenLossy pins that random loss no longer forces the single
// engine: every loss coin draws from its link's private stream in the
// link's own enqueue order, so a lossy PDQ cell drops exactly the same
// packets at any shard count (DESIGN.md §14).
func TestShardGoldenLossy(t *testing.T) {
	spec := func() *Spec {
		s := shardedSpec("PDQ(Full)")
		s.Topology.Loss = &LossSpec{Host: -1, Rate: 0.02}
		return s
	}
	var golden string
	for _, shards := range []int{1, 2, 4, 8} {
		tab, err := Run(spec(), Opts{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		got := tab.String()
		if shards == 1 {
			golden = got
			continue
		}
		if got != golden {
			t.Errorf("lossy shards=%d diverges from shards=1:\n--- shards=1\n%s\n--- shards=%d\n%s",
				shards, golden, shards, got)
		}
	}
}

// TestShardFallbackReasons drives every branch of shardFallback: each
// gate that pins a cell to the single engine must name itself, and a
// cell passing every gate must shard. The builder installs real PDQ
// state so the fault gates see the callbacks they key on (core.System
// is a fault.PathUpdater; core.SwitchLogic a SoftStateResetter).
func TestShardFallbackReasons(t *testing.T) {
	build := func(zeroDelay bool) (*topo.Topology, protocol.Installed) {
		tp := topo.FatTree(4, 7)
		if zeroDelay {
			for _, l := range tp.Net.Links() {
				l.PropDelay, l.ProcDelay = 0, 0
			}
		}
		return tp, core.Install(tp, core.Config{})
	}
	cases := []struct {
		name      string
		shardSafe bool
		zeroDelay bool
		faults    *fault.Schedule
		want      string
	}{
		{name: "shard-unsafe runner", shardSafe: false, want: fallbackRunner},
		{name: "link-down with path updates", shardSafe: true,
			faults: &fault.Schedule{Events: []fault.Event{{Kind: fault.LinkDown, Host: 0, Down: 1, Up: 2}}},
			want:   "faults drive path updates"},
		{name: "switch crash resets soft state", shardSafe: true,
			faults: &fault.Schedule{Events: []fault.Event{{Kind: fault.SwitchCrash, Switch: 0, At: 1}}},
			want:   "switch crash resets soft state"},
		{name: "zero lookahead", shardSafe: true, zeroDelay: true, want: fallbackLookahead},
		{name: "shardable", shardSafe: true, want: ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tp, sys := build(tc.zeroDelay)
			rc := RunCtx{Shards: 4, Faults: tc.faults, Env: Env{Obs: &obsv.Runtime{}}}
			if got := shardFallback(tp, rc, sys, tc.shardSafe); got != tc.want {
				t.Fatalf("shardFallback = %q, want %q", got, tc.want)
			}
			g := shardGroupFor(tp, rc, sys, tc.shardSafe)
			if tc.want != "" {
				// A named fallback must take the single-engine path and
				// report one active engine on the gauge.
				if g != nil {
					t.Fatalf("fallback %q still built a shard group", tc.want)
				}
				if n := rc.Obs.Snapshot().ShardsActive; n != 1 {
					t.Fatalf("shards_active gauge = %d after fallback, want 1", n)
				}
			} else {
				if g == nil {
					t.Fatal("gate-free cell did not shard")
				}
				if n := rc.Obs.Snapshot().ShardsActive; n != 4 {
					t.Fatalf("shards_active gauge = %d, want 4", n)
				}
			}
		})
	}
}

// TestBadSchedRejected pins that an unknown timer backend is a spec
// error, not a silent heap fallback.
func TestBadSchedRejected(t *testing.T) {
	s := shardedSpec("TCP")
	s.Sched = "nope"
	if _, err := Run(s, Opts{}); err == nil {
		t.Fatal("Run accepted an unknown sched backend")
	}
}
