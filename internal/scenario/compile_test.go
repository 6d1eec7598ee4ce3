package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// cellPlan is everything that determines one grid cell's value, as one
// struct: its JSON is the material a cell key hashes (cellKey assembles the
// same bytes from the parts compile encoded), and json.Marshal of it is
// how keys were derived before the parts were encoded apart.
type cellPlan struct {
	Eng  *engPlan `json:"eng"`
	Col  *colPlan `json:"col"`
	Row  *rowPlan `json:"row"`
	Seed int64    `json:"seed"`
}

// TestPlanIsTheKey walks the plan structs by reflection: every field, at
// any depth, is exported and marshalled, and changing it alone changes the
// cell's key as compile and cellKey derive it. A field added to a plan is
// key material by construction; one hidden from JSON would let two
// different cells share a cache entry.
func TestPlanIsTheKey(t *testing.T) {
	newPlan := func() *cellPlan { return &cellPlan{Eng: &engPlan{}, Col: &colPlan{}, Row: &rowPlan{}} }
	key := func(p *cellPlan) string { return cellKey(planJSON(p.Eng), planJSON(p.Col), planJSON(p.Row), p.Seed) }
	if leaves := walkKey(t, "cell", newPlan, key); leaves < 40 {
		t.Errorf("walked %d fields, the plans have more", leaves)
	}
}

// walkKey checks every leaf field of the plan P, at any depth, and
// returns how many it changed: each must be exported, marshalled, and
// move key when set alone on a fresh plan.
func walkKey[P any](t *testing.T, root string, newPlan func() *P, key func(*P) string) (leaves int) {
	t.Helper()
	var walk func(path string, typ reflect.Type, at func(*P) reflect.Value)
	walk = func(path string, typ reflect.Type, at func(*P) reflect.Value) {
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			name := path + "." + f.Name
			// An embedded struct marshals its fields in place, exported or not.
			if !f.IsExported() && !f.Anonymous || strings.HasPrefix(f.Tag.Get("json"), "-") {
				t.Errorf("%s is not marshalled into the key", name)
				continue
			}
			field := func(p *P) reflect.Value { return at(p).Field(i) }
			switch f.Type.Kind() {
			case reflect.Struct:
				walk(name, f.Type, field)
				continue
			case reflect.Pointer:
				walk(name, f.Type.Elem(), func(p *P) reflect.Value { return field(p).Elem() })
				continue
			case reflect.Slice:
				walk(name+"[0]", f.Type.Elem(), func(p *P) reflect.Value {
					if s := field(p); s.Len() == 0 {
						s.Set(reflect.MakeSlice(f.Type, 1, 1))
					}
					return field(p).Index(0)
				})
			}
			p := newPlan()
			v := field(p)
			before := key(p)
			switch f.Type.Kind() {
			case reflect.String:
				v.SetString("x")
			case reflect.Int, reflect.Int64:
				v.SetInt(1)
			case reflect.Uint8:
				v.SetUint(1)
			case reflect.Float64:
				v.SetFloat(0.5)
			case reflect.Bool:
				v.SetBool(true)
			case reflect.Map:
				v.Set(reflect.ValueOf(map[string]float64{"k": 1}))
			case reflect.Slice:
				v.Set(reflect.MakeSlice(f.Type, 1, 1))
			default:
				t.Fatalf("%s: this test cannot change a %s", name, f.Type)
			}
			leaves++
			if key(p) == before {
				t.Errorf("changing %s leaves the key unchanged", name)
			}
		}
	}
	walk(root, reflect.TypeOf(*new(P)), func(p *P) reflect.Value { return reflect.ValueOf(p).Elem() })
	return leaves
}

// TestFlowRowsRefuseUnmodelledBlocks pins that a flow-level row refuses a
// spec block its simulator would run without reading, naming the row and
// the block: the table would be byte-identical to the one without it. The
// same blocks still compile where they are modelled.
func TestFlowRowsRefuseUnmodelledBlocks(t *testing.T) {
	lossy := func(s *Spec) { s.Topology.Loss = &LossSpec{Host: -1, Rate: 0.01} }
	lossAxis := func(s *Spec) {
		lossy(s)
		s.Sweep = &SweepSpec{Axis: "loss-rate", Values: []float64{0.01, 0.02}}
	}
	fault := func(kind string) func(*Spec) {
		return func(s *Spec) {
			fs := FaultSpec{Kind: kind, Host: 0, DownMs: 1, UpMs: 2}
			if kind == "gilbert-loss" {
				fs = FaultSpec{Kind: kind, Host: 0, PGB: 0.1, PBG: 0.5, LossBad: 0.5}
			}
			s.Faults = []FaultSpec{fs}
		}
	}
	cases := []struct {
		name   string
		row    ProtoSpec
		mutate func(*Spec)
		want   string // "" when the spec must compile
	}{
		{"topology.loss", ProtoSpec{Runner: "flow:PDQ"}, lossy, `row "flow:PDQ": flow-level runner "flow:PDQ" does not model topology.loss`},
		{"loss-rate axis", ProtoSpec{Runner: "flow:RCP"}, lossAxis, `row "flow:RCP": flow-level runner "flow:RCP" does not model the loss-rate axis`},
		{"loss-rate axis, fixed row", ProtoSpec{Label: "R", Runner: "flow:RCP", Fixed: true}, lossAxis, `row "R": flow-level runner "flow:RCP" does not model the loss-rate axis`},
		{"gilbert-loss", ProtoSpec{Runner: "flow:D3"}, fault("gilbert-loss"), `row "flow:D3": flow-level runner "flow:D3" does not model faults[0] (gilbert-loss)`},
		{"fault on fluid", ProtoSpec{Runner: "flow:fluid"}, fault("link-down"), `row "flow:fluid": flow-level runner "flow:fluid" does not model faults[0] (link-down)`},
		{"loss on packet row", ProtoSpec{Runner: "PDQ(Full)"}, lossAxis, ""},
		{"gilbert-loss on packet row", ProtoSpec{Runner: "TCP"}, fault("gilbert-loss"), ""},
		{"link-down on flow row", ProtoSpec{Runner: "flow:PDQ"}, fault("link-down"), ""},
	}
	for _, tc := range cases {
		s := minimalSpec()
		s.Protocols = []ProtoSpec{tc.row}
		tc.mutate(s)
		_, err := compile(s, Opts{})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
}

// TestRunnerParamsChecked pins that a runner parameter its Make would
// truncate, replace by a default or fail on is refused at compile, naming
// the row, the runner and the parameter, and that the edge of each
// accepted range and every shipped example and workload spec still
// compile. A metric, size-distribution, qdisc, pattern or flow-generator
// parameter its entry would silently reinterpret is refused the same way,
// naming the entry. Only compile runs: no case simulates its values.
func TestRunnerParamsChecked(t *testing.T) {
	cases := []struct {
		runner string // or "<kind> <name>": metric, sizes, qdisc, pattern or gen
		params map[string]float64
		want   string // "" when the spec must compile
	}{
		{"PDQ(Full)", map[string]float64{"subflows": -1}, `parameter "subflows" = -1`},
		{"PDQ(Full)", map[string]float64{"subflows": 65}, `parameter "subflows" = 65`},
		{"PDQ(ES)", map[string]float64{"subflows": 1e9}, `parameter "subflows" = 1e+09`},
		{"PDQ(Basic)", map[string]float64{"subflows": 64}, ""},
		{"flow:PDQ", map[string]float64{"crit": 5}, `parameter "crit" = 5`},
		{"flow:PDQ", map[string]float64{"crit": 0.7}, `parameter "crit" = 0.7`},
		{"flow:PDQ", map[string]float64{"aging": -0.5}, `parameter "aging" = -0.5`},
		{"flow:PDQ", map[string]float64{"et": 0.5}, `parameter "et" = 0.5`},
		{"flow:PDQ", map[string]float64{"crit": 2, "aging": 0, "et": 1}, ""},
		{"flow:RCP", map[string]float64{"et": 2}, `parameter "et" = 2`},
		{"flow:D3", map[string]float64{"et": -1}, `parameter "et" = -1`},
		{"flow:fluid", map[string]float64{"policy": 4}, `parameter "policy" = 4`},
		{"flow:fluid", map[string]float64{"policy": 0.5}, `parameter "policy" = 0.5`},
		{"flow:fluid", map[string]float64{"gbps": -1}, `parameter "gbps" = -1`},
		{"flow:fluid", map[string]float64{"gbps": 1e-10}, `parameter "gbps" = 1e-10`},
		{"flow:fluid", map[string]float64{"policy": 2, "gbps": 1e-9}, ""},
		{"DCTCP", map[string]float64{"g": 0}, `parameter "g" = 0`},
		{"DCTCP", map[string]float64{"g": 1.5}, `parameter "g" = 1.5`},
		{"DCTCP", map[string]float64{"threshold_kb": 0}, `parameter "threshold_kb" = 0`},
		{"DCTCP", map[string]float64{"g": 1, "threshold_kb": 1.0 / 1024}, ""},
		{"pFabric", map[string]float64{"bands": 0}, `parameter "bands" = 0`},
		{"pFabric", map[string]float64{"bands": 2.5}, `parameter "bands" = 2.5`},
		{"pFabric", map[string]float64{"bands": 65}, `parameter "bands" = 65`},
		{"pFabric", map[string]float64{"init_cwnd": 0.5}, `parameter "init_cwnd" = 0.5`},
		{"pFabric", map[string]float64{"rtomin_us": 0}, `parameter "rtomin_us" = 0`},
		{"pFabric", map[string]float64{"bands": 64, "init_cwnd": 1, "rtomin_us": 0.001}, ""},
		{"metric goodput-gbps", map[string]float64{"from_ms": 10, "to_ms": 5}, `parameters "from_ms" = 10, "to_ms" = 5`},
		{"metric goodput-gbps", map[string]float64{"from_ms": 5, "to_ms": 5}, `parameters "from_ms" = 5, "to_ms" = 5`},
		{"metric goodput-gbps", map[string]float64{"from_ms": 10, "to_ms": 0}, ""},
		{"metric goodput-gbps", map[string]float64{"from_ms": 5, "to_ms": 10}, ""},
		{"metric fct-quantile", map[string]float64{"q": 150}, `parameter "q" = 150`},
		{"metric fct-quantile", map[string]float64{"q": -1}, `parameter "q" = -1`},
		{"metric fct-quantile", map[string]float64{"q": 100}, ""},
		{"metric fct-quantile", map[string]float64{"q": 0}, ""},
		{"sizes uniform", map[string]float64{"lo_kb": 200, "hi_kb": 2}, `parameters "lo_kb" = 200, "hi_kb" = 2`},
		{"sizes uniform", map[string]float64{"lo_kb": 50, "hi_kb": 50}, ""},
		{"sizes pareto", map[string]float64{"alpha": 0.5}, `parameter "alpha" = 0.5`},
		{"metric goodput-gbps", map[string]float64{"from_ms": -1}, `parameter "from_ms" = -1`},
		{"metric goodput-gbps", map[string]float64{"to_ms": 1e13}, `parameter "to_ms" = 1e+13`},
		{"metric recovery-ms", map[string]float64{"after_ms": 1e13}, `parameter "after_ms" = 1e+13`},
		{"metric recovery-ms", map[string]float64{"after_ms": 1e12}, ""},
		{"metric link-util", map[string]float64{"from_ms": -1}, `parameter "from_ms" = -1`},
		{"qdisc prio", map[string]float64{"bands": 0}, `parameter "bands" = 0`},
		{"qdisc prio", map[string]float64{"bands": 2.5}, `parameter "bands" = 2.5`},
		{"qdisc prio", map[string]float64{"bands": 1e9}, `parameter "bands" = 1e+09`},
		{"qdisc prio", map[string]float64{"bands": 64}, ""},
		{"qdisc ecn", map[string]float64{"threshold_kb": 0}, `parameter "threshold_kb" = 0`},
		{"qdisc ecn", map[string]float64{"threshold_kb": -1}, `parameter "threshold_kb" = -1`},
		{"qdisc ecn", map[string]float64{"threshold_kb": 1.0 / 1024}, ""},
		{"pattern stride", map[string]float64{"i": 2.5}, `parameter "i" = 2.5`},
		{"pattern stride", map[string]float64{"i": -1}, `parameter "i" = -1`},
		{"pattern stride", map[string]float64{"i": 0}, ""},
		{"pattern staggered", map[string]float64{"p": -0.1}, `parameter "p" = -0.1`},
		{"pattern staggered", map[string]float64{"p": 1.5}, `parameter "p" = 1.5`},
		{"pattern staggered", map[string]float64{"p": 1}, ""},
		{"gen long-vs-shorts", map[string]float64{"shorts": 2.5}, `parameter "shorts" = 2.5`},
		{"gen long-vs-shorts", map[string]float64{"shorts": -1}, `parameter "shorts" = -1`},
		{"gen long-vs-shorts", map[string]float64{"spacing_ms": -1}, `parameter "spacing_ms" = -1`},
		{"gen long-vs-shorts", map[string]float64{"spacing_ms": 1e11}, `parameter "spacing_ms" = 1e+11`},
		{"gen long-vs-shorts", map[string]float64{"shorts": 0, "spacing_ms": 1e12}, ""},
	}
	kinds := map[string]string{"metric": "metric", "sizes": "size distribution", "qdisc": "qdisc", "pattern": "pattern", "gen": "flow generator"}
	for _, tc := range cases {
		s := minimalSpec()
		kind, name, _ := strings.Cut(tc.runner, " ")
		want := fmt.Sprintf("%s %q: %s", kinds[kind], name, tc.want)
		switch kind {
		case "metric":
			s.Metric = MetricSpec{Name: name, Params: tc.params}
		case "sizes":
			s.Workload.Sizes = DistSpec{Name: name, Params: tc.params}
		case "qdisc":
			s.Protocols = []ProtoSpec{{Runner: "TCP", Qdisc: &QdiscSpec{Name: name, Params: tc.params}}}
			want = `row "TCP": ` + want
		case "pattern":
			s.Workload.Pattern = PatternSpec{Name: name, Params: tc.params}
		case "gen":
			s.Workload.Custom, s.Workload.Params = name, tc.params
		default:
			s.Protocols = []ProtoSpec{{Runner: tc.runner, Params: tc.params}}
			want = fmt.Sprintf("row %q: runner %q: %s", tc.runner, tc.runner, tc.want)
		}
		_, err := compile(s, Opts{})
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s %v: %v", tc.runner, tc.params, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s %v: error %v, want one containing %q", tc.runner, tc.params, err, want)
		}
	}
	for _, glob := range []string{"../../examples/scenarios/*.json", "../../benchmark/workloads/*.json"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v files, %v", glob, len(files), err)
		}
		for _, name := range files {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := Load(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for _, quick := range []bool{true, false} {
				if _, err := compile(s, Opts{Quick: quick}); err != nil {
					t.Errorf("%s (quick=%v): %v", name, quick, err)
				}
			}
		}
	}
}
