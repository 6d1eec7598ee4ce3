package scenario

import (
	"encoding/json"
	"math"
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
		}, `row "mp": runner "PDQ(Full)": parameter "subflows" = -1`},
		{"fractional subflows", func(s *Spec) {
			s.Protocols = []ProtoSpec{{Runner: "PDQ(Basic)", Params: map[string]float64{"subflows": 2.5}}}
		}, `row "PDQ(Basic)": runner "PDQ(Basic)": parameter "subflows" = 2.5`},
		{"metric", func(s *Spec) { s.Metric.Name = "nope" }, `unknown metric "nope"`},
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
		{"burst size under a byte", func(s *Spec) {
			s.Topology.Params = map[string]float64{"senders": 3}
			s.Workload.Custom, s.Workload.Params = "burst", map[string]float64{"short_kb": 0.5} // shorts draw from short_kb ± 1 KB
		}, `parameter "short_kb" = 0.5 is 512 bytes`},
		{"flow generator size under a byte", func(s *Spec) {
			s.Topology.Params = map[string]float64{"senders": 3}
			s.Workload.Custom, s.Workload.Params = "long-vs-shorts", map[string]float64{"long_mb": 1e-7}
		}, `parameter "long_mb" = 1e-07 is 0 bytes`},
		{"link metric on a flow-level row", func(s *Spec) { s.Metric = MetricSpec{Name: "link-drops"} },
			`row "flow:RCP": link metric "link-drops" needs a packet-level runner, "flow:RCP" is flow-level`},
		{"link host out of range", func(s *Spec) {
			s.Protocols = []ProtoSpec{{Runner: "TCP", Metric: &MetricSpec{Name: "link-drops", Params: map[string]float64{"host": 9}}}}
		}, `row "TCP": link metric "link-drops": host 9 out of range (topology has 6 hosts)`},
		{"link metric in a search", func(s *Spec) {
			s.Protocols = []ProtoSpec{{Runner: "TCP"}}
			s.Metric = MetricSpec{Name: "link-queue-max"}
			s.Eval = EvalSpec{Mode: "max-flows", Hi: 8, Threshold: 1}
		}, `row "TCP": metric "link-queue-max" reads one whole run, and a search's probes are cut short`},
		{"pair metric without a ref", func(s *Spec) { s.Metric = MetricSpec{Name: "fct-ratio"} },
			`row "flow:RCP": pair metric "fct-ratio" needs a ref runner`},
		{"ref without a pair metric", func(s *Spec) { s.Protocols[0].Ref = "flow:PDQ" },
			`row "flow:RCP": ref "flow:PDQ" is read by no metric: "mean-fct" is not a pair metric`},
		{"unknown ref", func(s *Spec) { s.Protocols[0].Ref = "nope" }, `row "flow:RCP": ref: unknown runner "nope"`},
		{"cases with an axis", func(s *Spec) {
			s.Sweep = &SweepSpec{Axis: "flows", Values: []float64{1, 2}, Cases: []SweepCase{{Label: "a"}}}
		}, "sweep sets cases and axis, values or labels"},
		{"cases with quick labels", func(s *Spec) {
			s.Sweep = &SweepSpec{QuickCases: []SweepCase{{Label: "a"}}, QuickLabels: []string{"b"}}
		}, "sweep sets cases and axis, values or labels"},
		{"horizon past sim.Time", func(s *Spec) { s.HorizonMs = 1e13 }, `parameter "horizon_ms" = 1e+13`},
		{"mean deadline past sim.Time", func(s *Spec) { s.Workload.MeanDeadlineMs = 1e13 }, `parameter "mean_deadline_ms" = 1e+13`},
		{"negative mean deadline", func(s *Spec) { s.Workload.MeanDeadlineMs = -5 }, `parameter "mean_deadline_ms" = -5`},
		{"window past sim.Time", func(s *Spec) {
			s.Workload.Count = 0
			s.Workload.Arrival = &ArrivalSpec{Rate: 100, WindowMs: 1e13}
		}, `parameter "window_ms" = 1e+13`},
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
	s, err := Load([]byte(`{"name":"half","topology":{"name":"single-bottleneck","params":{"senders":3}},
		"workload":{"custom":"equal-flows","params":{"size_mb":0.5}},"protocols":["PDQ(Full)"],
		"metric":{"name":"finish","params":{"ms":1}},"col_label":"all done [ms]","horizon_ms":100}`))
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	// Three flows of 512 KiB share a 1 Gbps bottleneck back to back:
	// 3 × 4.19 ms of payload plus headers and the handshakes.
	if done := tab.Get("PDQ(Full)", "all done [ms]"); done < 12.6 || done > 15 {
		t.Errorf("three 512 KiB flows all done at %v ms, want ≈ 13:\n%s", done, tab)
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
	if _, err := Load([]byte(`{"name": "x"} {"name": "y"}`)); err == nil {
		t.Error("Load accepted data after the spec")
	}
}

// TestLoadRejectsUnknownKeys pins strict decoding: a key no field takes
// fails the spec at any depth, including inside a protocol row's object
// form, and the error names the key.
func TestLoadRejectsUnknownKeys(t *testing.T) {
	for key, spec := range map[string]string{
		"horizon_msec": `{"name": "x", "horizon_msec": 50}`,
		"treshold":     `{"name": "x", "eval": {"mode": "max-flows", "treshold": 99}}`,
		"shards":       `{"name": "x", "shards": 2}`,
		"lable":        `{"name": "x", "protocols": ["TCP", {"runner": "RCP", "lable": "r"}]}`,
	} {
		_, err := Load([]byte(spec))
		if err == nil || !strings.Contains(err.Error(), `"`+key+`"`) {
			t.Errorf("Load(%s) = %v, want an error naming %q", spec, err, key)
		}
	}
}

// TestBadSchedRejected pins that a spec still choosing a timer backend is
// refused by name rather than silently run on the one engine there is.
func TestBadSchedRejected(t *testing.T) {
	_, err := Load([]byte(`{"name": "x", "horizon_ms": 10, "sched": "wheel"}`))
	if err == nil || !strings.Contains(err.Error(), `"sched"`) {
		t.Fatalf("Load = %v, want an error naming \"sched\"", err)
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
	zero := MustRun(echoSpec(), Opts{})
	explicit := MustRun(echoSpec(), Opts{Seed: DefaultSeed})
	if !reflect.DeepEqual(zero, explicit) {
		t.Errorf("Seed 0 ran %v, explicit DefaultSeed ran %v", zero, explicit)
	}
	if v := zero.Rows[0].Vals[0]; v != float64(DefaultSeed) {
		t.Errorf("sentinel seed resolved to %v, want %d", v, DefaultSeed)
	}
}

// echoSpec is a grid whose cells show the base seed they ran at, times
// the column's echo value: test:boom's one flow takes echo × seed
// seconds.
func echoSpec(echo ...float64) *Spec {
	s := minimalSpec()
	s.Protocols = []ProtoSpec{{Runner: "test:boom", Params: map[string]float64{"echo": 1}}}
	if echo != nil {
		s.Sweep = &SweepSpec{Axis: "runner:echo", Values: echo}
	}
	return s
}

// TestRunTrialsSingle pins that a single-trial sweep runs every cell once,
// at the base seed, and carries no stderr.
func TestRunTrialsSingle(t *testing.T) {
	tab := MustRun(echoSpec(1, 2), Opts{Seed: 5, Parallel: 2})
	if r := tab.Rows[0]; !reflect.DeepEqual(r.Vals, []float64{5, 10}) || r.Errs != nil {
		t.Errorf("single-trial row %v ± %v, want [5 10] evaluated at Opts.Seed and no stderr", r.Vals, r.Errs)
	}
}

// TestRunTrialsReplicates pins the replicate loop: replicate r runs at
// base seed Seed + r·TrialSeedStride, and the row holds their mean and
// standard error.
func TestRunTrialsReplicates(t *testing.T) {
	tab := MustRun(echoSpec(), Opts{Seed: 1, Trials: 4, Parallel: 2})
	// Seeds 1 + r·stride for r = 0..3: mean 1 + 1.5·stride, and the
	// stddev of {0, 1, 2, 3}·stride over sqrt(4).
	mean := 1 + 1.5*TrialSeedStride
	stderr := math.Sqrt(5.0/3.0) / 2 * TrialSeedStride
	r := tab.Rows[0]
	if r.Vals[0] != mean {
		t.Errorf("mean %v, want %v", r.Vals[0], mean)
	}
	if len(r.Errs) != 1 || math.Abs(r.Errs[0]-stderr) > 1e-12*stderr {
		t.Errorf("stderr %v, want %v", r.Errs, stderr)
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
