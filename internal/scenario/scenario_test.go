package scenario

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
)

// minimalSpec is a valid one-cell grid spec the error tests mutate.
func minimalSpec() *Spec {
	return &Spec{
		Name:      "t",
		Topology:  TopoSpec{Name: "single-bottleneck"},
		Workload:  WorkloadSpec{Pattern: PatternSpec{Name: "aggregation"}, Sizes: DistSpec{Name: "uniform-mean"}, Count: 2},
		Protocols: []ProtoSpec{{Runner: "flow:RCP"}},
		Metric:    MetricSpec{Name: "mean-fct"},
		HorizonMs: 100,
	}
}

func init() {
	RegisterDriver(DriverEntry{
		Name: "test-panics",
		Fn:   func(*Spec, map[string]float64, Opts) (*Table, error) { panic(errors.New("boom")) },
	})
}

func TestRunMinimalSpec(t *testing.T) {
	tab, err := Run(minimalSpec(), Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 1 || len(tab.Cols) != 1 {
		t.Fatalf("want 1×1 table, got:\n%s", tab)
	}
	if tab.Rows[0].Vals[0] <= 0 {
		t.Errorf("mean FCT %v, want > 0", tab.Rows[0].Vals[0])
	}
}

// TestUnknownNamesError pins that every registry lookup fails loudly with
// the offending name — a typo in a spec must not silently run a default.
func TestUnknownNamesError(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"topology", func(s *Spec) { s.Topology.Name = "nope" }, `unknown topology "nope"`},
		{"topology param", func(s *Spec) { s.Topology.Params = map[string]float64{"nope": 1} }, `unknown parameter "nope"`},
		{"pattern", func(s *Spec) { s.Workload.Pattern.Name = "nope" }, `unknown pattern "nope"`},
		{"pattern param", func(s *Spec) { s.Workload.Pattern.Params = map[string]float64{"nope": 1} }, `unknown parameter "nope"`},
		{"sizes", func(s *Spec) { s.Workload.Sizes.Name = "nope" }, `unknown size distribution "nope"`},
		{"runner", func(s *Spec) { s.Protocols = []ProtoSpec{{Runner: "nope"}} }, `unknown runner "nope"`},
		{"runner param", func(s *Spec) { s.Protocols = []ProtoSpec{{Runner: "flow:RCP", Params: map[string]float64{"nope": 1}}} }, `unknown parameter "nope"`},
		{"negative subflows", func(s *Spec) {
			s.Protocols = []ProtoSpec{{Label: "mp", Runner: "PDQ(Full)", Params: map[string]float64{"subflows": -1}}}
		}, `row "mp": parameter "subflows" = -1`},
		{"fractional subflows", func(s *Spec) {
			s.Protocols = []ProtoSpec{{Runner: "PDQ(Basic)", Params: map[string]float64{"subflows": 2.5}}}
		}, `row "PDQ(Basic)": parameter "subflows" = 2.5`},
		{"analytic", func(s *Spec) { s.Protocols = []ProtoSpec{{Analytic: "nope"}} }, `unknown analytic "nope"`},
		{"metric", func(s *Spec) { s.Metric.Name = "nope" }, `unknown metric "nope"`},
		{"driver", func(s *Spec) { s.Driver = "nope" }, `unknown driver "nope"`},
		{"flow generator", func(s *Spec) { s.Workload.Custom = "nope" }, `unknown flow generator "nope"`},
		{"axis", func(s *Spec) { s.Sweep = &SweepSpec{Axis: "nope", Values: []float64{1}} }, `unknown sweep axis "nope"`},
		{"eval mode", func(s *Spec) { s.Eval.Mode = "nope" }, `unknown eval mode "nope"`},
		{"normalize", func(s *Spec) { s.Normalize = "nope" }, `unknown normalize mode "nope"`},
		{"no protocols", func(s *Spec) { s.Protocols = nil }, "no protocols"},
		{"take fraction", func(s *Spec) { s.Workload.TakeFraction = 1.5 }, "take fraction 1.5 out of range"},
		{"load axis range", func(s *Spec) {
			s.Sweep = &SweepSpec{Axis: "load", Values: []float64{1.25}}
		}, "take fraction 1.25 out of range"},
		{"flow generator hosts", func(s *Spec) {
			s.Topology.Params = map[string]float64{"senders": 1}
			s.Workload.Custom = "long-vs-shorts"
		}, `"long-vs-shorts" needs at least 3 hosts`},
		{"hosts override too large", func(s *Spec) { s.Workload.Hosts = 50 }, "workload.hosts 50 exceeds"},
		{"max-flows without hi", func(s *Spec) {
			s.Eval = EvalSpec{Mode: "max-flows", Threshold: 99}
			s.Metric = MetricSpec{Name: "app-throughput"}
		}, "max-flows needs eval.hi"},
		{"max-flows without threshold", func(s *Spec) {
			s.Eval = EvalSpec{Mode: "max-flows", Hi: 8}
			s.Metric = MetricSpec{Name: "app-throughput"}
		}, "max-flows needs eval.threshold > 0"},
		{"max-rate with negative threshold", func(s *Spec) {
			s.Eval = EvalSpec{Mode: "max-rate", Threshold: -1, Steps: 4, RateStep: 100}
			s.Workload.Count = 0
			s.Workload.Arrival = &ArrivalSpec{WindowMs: 10}
		}, "max-rate needs eval.threshold > 0"},
		{"max-rate without steps", func(s *Spec) {
			s.Eval = EvalSpec{Mode: "max-rate", Threshold: 99, RateStep: 100}
			s.Workload.Count = 0
			s.Workload.Arrival = &ArrivalSpec{WindowMs: 10}
		}, "max-rate needs eval.steps"},
		{"max-rate without rate step", func(s *Spec) {
			s.Eval = EvalSpec{Mode: "max-rate", Threshold: 99, Steps: 4}
			s.Workload.Count = 0
			s.Workload.Arrival = &ArrivalSpec{WindowMs: 10}
		}, "max-rate needs eval.rate_step"},
		{"batch axis on poisson workload", func(s *Spec) {
			s.Workload.Count = 0
			s.Workload.Arrival = &ArrivalSpec{Rate: 100, WindowMs: 10}
			s.Sweep = &SweepSpec{Axis: "flows", Values: []float64{1, 2}}
		}, `axis "flows" has no effect on a Poisson workload`},
		{"batch count on poisson workload", func(s *Spec) {
			s.Workload.Arrival = &ArrivalSpec{Rate: 100, WindowMs: 10}
		}, "count/count_per_host have no effect"},
		{"label mismatch", func(s *Spec) {
			s.Sweep = &SweepSpec{Axis: "flows", Values: []float64{1, 2}, Labels: []string{"a"}}
		}, "1 labels for 2 values"},
		{"driver size under a byte", func(s *Spec) {
			s.Driver, s.Params = "burst-trace", map[string]float64{"short_kb": 0.5} // shorts draw from short_kb ± 1 KB
		}, `parameter "short_kb" = 0.5 is 512 bytes`},
		{"flow generator size under a byte", func(s *Spec) {
			s.Topology.Params = map[string]float64{"senders": 3}
			s.Workload.Custom, s.Workload.Params = "long-vs-shorts", map[string]float64{"long_mb": 1e-7}
		}, `parameter "long_mb" = 1e-07 is 0 bytes`},
		// A driver has no cells to fail into: its panic is the scenario's error.
		{"driver's simulation panics", func(s *Spec) {
			s.Driver, s.Params = "burst-trace", map[string]float64{"shorts": -1}
		}, "scenario t: driver burst-trace: protocol: flow 100000 of 20971520 bytes from host 0 to host 0"},
		{"driver panics", func(s *Spec) { s.Driver = "test-panics" }, "scenario t: driver test-panics: boom"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := minimalSpec()
			tc.mutate(s)
			_, err := Run(s, Opts{})
			if err == nil {
				t.Fatal("Run succeeded on a malformed spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestFractionalSizeParams pins that a size parameter is scaled to bytes
// before it is truncated: half a megabyte is 512 KiB, not zero bytes.
func TestFractionalSizeParams(t *testing.T) {
	s, err := Load([]byte(`{"name":"half","driver":"convergence-trace","params":{"flows":3,"size_mb":0.5}}`))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// Three flows of 512 KiB share a 1 Gbps bottleneck back to back:
	// 3 × 4.19 ms of payload plus headers and the handshakes.
	if done := tab.Get("all done [ms]", "value"); done < 12.6 || done > 15 {
		t.Errorf("three 512 KiB flows all done at %v ms, want ≈ 13:\n%s", done, tab)
	}
	for i := 0; i < 3; i++ {
		if tab.Rows[i].Vals[0] <= 0 {
			t.Errorf("%s = %v: the flow did not finish", tab.Rows[i].Label, tab.Rows[i].Vals[0])
		}
	}

	g, p, err := flowGens.Resolve("long-vs-shorts", map[string]float64{"shorts": 1, "short_kb": 0.5, "long_mb": 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if fl := g.Gen(p, 3, 1); fl[0].Size != 3<<19 || fl[1].Size != 512 {
		t.Errorf("long-vs-shorts drew %d and %d bytes, want %d and 512", fl[0].Size, fl[1].Size, 3<<19)
	}
}

// TestProtoSpecStringShorthand pins that a bare runner name in JSON is
// shorthand for the object form.
func TestProtoSpecStringShorthand(t *testing.T) {
	var s Spec
	blob := `{"name": "x", "protocols": ["TCP", {"label": "pdq", "runner": "PDQ(Full)"}]}`
	if err := json.Unmarshal([]byte(blob), &s); err != nil {
		t.Fatal(err)
	}
	want := []ProtoSpec{{Runner: "TCP"}, {Label: "pdq", Runner: "PDQ(Full)"}}
	if !reflect.DeepEqual(s.Protocols, want) {
		t.Errorf("got %+v, want %+v", s.Protocols, want)
	}
}

// TestLoadRejectsGarbage pins Load's error paths.
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load([]byte("{")); err == nil {
		t.Error("Load accepted malformed JSON")
	}
	if _, err := Load([]byte(`{"desc": "anonymous"}`)); err == nil {
		t.Error("Load accepted a spec without a name")
	}
}

// TestSeedSentinel pins the single documented seed convention: Opts.Seed
// 0 is a sentinel for DefaultSeed, so a zero-value Opts and an explicit
// Seed=DefaultSeed run the same trials.
func TestSeedSentinel(t *testing.T) {
	if DefaultSeed != 1 {
		t.Fatalf("DefaultSeed = %d, the documented default is 1", DefaultSeed)
	}
	if got := (Opts{}).BaseSeed(); got != DefaultSeed {
		t.Errorf("Opts{}.BaseSeed() = %d, want DefaultSeed", got)
	}
	if got := (Opts{Seed: 7}).BaseSeed(); got != 7 {
		t.Errorf("Opts{Seed: 7}.BaseSeed() = %d, want 7", got)
	}
	echo := []Trial{func(seed int64) float64 { return float64(seed) }}
	zero := RunTrials(Opts{}, echo)
	explicit := RunTrials(Opts{Seed: DefaultSeed}, echo)
	if !reflect.DeepEqual(zero, explicit) {
		t.Errorf("Seed 0 ran %v, explicit DefaultSeed ran %v", zero, explicit)
	}
	if zero[0].Mean != float64(DefaultSeed) {
		t.Errorf("sentinel seed resolved to %v, want %d", zero[0].Mean, DefaultSeed)
	}
}

// TestFixedRowsIgnoreAxis pins that Fixed baseline rows evaluate the base
// spec in every column.
func TestFixedRowsIgnoreAxis(t *testing.T) {
	s := minimalSpec()
	s.Protocols = []ProtoSpec{
		{Label: "swept", Runner: "flow:PDQ"},
		{Label: "fixed", Runner: "flow:RCP", Fixed: true},
	}
	s.Sweep = &SweepSpec{Axis: "flows", Values: []float64{1, 4}}
	tab, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	fixed := tab.Rows[1]
	if fixed.Vals[0] != fixed.Vals[1] {
		t.Errorf("fixed row varies across columns: %v", fixed.Vals)
	}
	swept := tab.Rows[0]
	if swept.Vals[0] == swept.Vals[1] {
		t.Errorf("swept row constant across flows=1 and flows=4: %v", swept.Vals)
	}
}
