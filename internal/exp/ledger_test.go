package exp

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"pdq/internal/obsv"
	"pdq/internal/scenario"
)

// TestLedger pins every cell record's exact counters (DESIGN.md §13): the
// search probes and their verdicts, the flows done and terminated, and the
// engine's events scheduled, fired, cancelled and refilled with its queue
// mark. It covers the quick figures at seed 1, the benchmark workloads at
// quick scale (read, never edited) and one small cell per packet protocol
// (eventPinSpecs). The figure goldens print 3–4 significant digits and
// would let a reordered or doubled timer through; these counts move when
// any At/After/Cancel call is added, dropped or turned into a no-op, so a
// change that claims to move no event leaves testdata/ledger.jsonl as it
// is, and one that moves events shows which counts moved. It holds no wall
// time and no cache flag; a simulation several cells read is counted in
// the first reader's record (DESIGN.md §7). The test compares at 4
// workers; `go test ./internal/exp -run Ledger -update` rewrites the file
// at 1.
func TestLedger(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick figure")
	}
	obs := obsv.New(nil)
	o := scenario.Opts{Quick: true, Seed: 1, Parallel: 4, Obs: obs}
	if *updateGolden {
		o.Parallel = 1
	}
	for _, name := range FigureNames() {
		Figures[name](o)
	}
	paths, err := filepath.Glob(filepath.Join("..", "..", "benchmark", "workloads", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no benchmark workloads: %v", err)
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s, err := scenario.Load(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		scenario.MustRun(s, o)
	}
	for _, s := range eventPinSpecs() {
		scenario.MustRun(s, o)
	}
	var lines []string
	for _, run := range obs.Runs() {
		for _, c := range run.Cells {
			c.Cached, c.WallNs = false, 0
			line, err := json.Marshal(struct {
				Run string `json:"run"`
				obsv.Cell
			}{run.Name, c})
			if err != nil {
				t.Fatal(err)
			}
			lines = append(lines, string(line))
		}
	}
	sort.Strings(lines)
	got := strings.Join(lines, "\n") + "\n"
	path := filepath.Join("testdata", "ledger.jsonl")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing ledger (run with -update on a trusted engine): %v", err)
	}
	if got == string(want) {
		return
	}
	have := map[string]bool{}
	for _, l := range strings.Split(string(want), "\n") {
		have[l] = true
	}
	for _, l := range lines {
		if !have[l] {
			t.Errorf("record not in the ledger: %s", l)
		}
	}
	t.Errorf("%d records differ from the %d-line ledger (run name first on each line)", len(lines), len(have)-1)
}

// eventPinSpecs are one small cell per packet protocol, each its own run:
// 24 deadline flows into one host of the 12-server tree, on a lossy tree
// and M-PDQ on BCube besides. Their PDQ rows' event counts date from before
// PDQ moved onto xfer's sender, and the TCP family's (pFabric on the prio
// links it installs) from before the six launches moved onto one host
// scaffold; none may change under a refactor that claims to move no event.
// scenario's TestPacedSenderEventSequence pins the same counts through
// Runtime.Snapshot.
func eventPinSpecs() []*scenario.Spec {
	tree := scenario.TopoSpec{Name: "single-rooted-tree"}
	lossy := scenario.TopoSpec{Name: "single-rooted-tree", Loss: &scenario.LossSpec{Host: -1, Rate: 0.02}}
	bcube := scenario.TopoSpec{Name: "bcube", Params: map[string]float64{"n": 2, "k": 3}}
	cases := []struct {
		name  string
		topo  scenario.TopoSpec
		proto scenario.ProtoSpec
	}{
		{"PDQ(Full)", tree, scenario.ProtoSpec{Runner: "PDQ(Full)"}},
		{"PDQ(Basic)", tree, scenario.ProtoSpec{Runner: "PDQ(Basic)"}},
		{"M-PDQ(3) on BCube", bcube, scenario.ProtoSpec{Runner: "PDQ(Full)", Params: map[string]float64{"subflows": 3}}},
		{"RCP", tree, scenario.ProtoSpec{Runner: "RCP"}},
		{"D3", tree, scenario.ProtoSpec{Runner: "D3"}},
		{"PDQ(Full) lossy", lossy, scenario.ProtoSpec{Runner: "PDQ(Full)"}},
		{"TCP", tree, scenario.ProtoSpec{Runner: "TCP"}},
		{"DCTCP", tree, scenario.ProtoSpec{Runner: "DCTCP"}},
		{"pFabric", tree, scenario.ProtoSpec{Runner: "pFabric"}},
	}
	var specs []*scenario.Spec
	for _, c := range cases {
		specs = append(specs, &scenario.Spec{
			Name:     "event-pin " + c.name,
			Topology: c.topo,
			Workload: scenario.WorkloadSpec{
				Pattern:        scenario.PatternSpec{Name: "aggregation"},
				Sizes:          scenario.DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 60}},
				MeanDeadlineMs: 8,
				Count:          24,
			},
			Protocols: []scenario.ProtoSpec{c.proto},
			Metric:    scenario.MetricSpec{Name: "app-throughput"},
			HorizonMs: 500,
		})
	}
	return specs
}
