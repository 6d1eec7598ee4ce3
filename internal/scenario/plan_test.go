package scenario_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"testing"

	"pdq/internal/exp"
	"pdq/internal/scenario"
)

// quickFigureKeysSHA is SHA-256 over the sorted, newline-joined cell keys
// of all 25 figures at -quick -seed 1. It was computed with this test on
// the commit before compile became spec → plan → cell; a cache written by
// any earlier build stays addressable as long as it does not move.
const quickFigureKeysSHA = "c2abae686ec31d1758f206bc2515a0c518d0543d2237cefc95cf6748b27bdca9"

// TestCellKeysDidNotMove pins every quick figure's cell keys at once.
func TestCellKeysDidNotMove(t *testing.T) {
	var keys []string
	for _, name := range exp.FigureNames() {
		s := exp.Specs[name]()
		if s.Driver != "" {
			continue // custom drivers have no cells
		}
		ks, err := scenario.CellKeys(s, scenario.Opts{Quick: true, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keys = append(keys, ks...)
	}
	slices.Sort(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	if got := hex.EncodeToString(sum[:]); got != quickFigureKeysSHA {
		t.Errorf("%d cell keys hash to %s, want %s", len(keys), got, quickFigureKeysSHA)
	}
}

// quickDriverKeys are the four custom-driver figures' table keys at
// -quick -seed 1: the driver-table half of what TestCellKeysDidNotMove
// pins for grid cells.
var quickDriverKeys = map[string]string{
	"fig1":  "1d0ea1b038f15944fae198920dcd485b39b7aa19dccea97d839c9f43e0f10ce8",
	"fig6":  "e18a0eda4d741bccb65971b50c4b641a514e4f944ba6c20b170d828c77a4886a",
	"fig7":  "92cfd563deac261d1f759e298d166a577e869baf62b1589129a43d2ffed51e46",
	"fig8e": "0827d6a8fe11001ad1be4443f889daac567f32c091a4a126d77199b2181e39d1",
}

// TestDriverKeysDidNotMove pins every custom-driver figure's table key.
func TestDriverKeysDidNotMove(t *testing.T) {
	n := 0
	for _, name := range exp.FigureNames() {
		s := exp.Specs[name]()
		if s.Driver == "" {
			continue
		}
		n++
		got, err := scenario.DriverKey(s, scenario.Opts{Quick: true, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want, ok := quickDriverKeys[name]; !ok || got != want {
			t.Errorf("%s: table key %s, want %q", name, got, want)
		}
	}
	if n != len(quickDriverKeys) {
		t.Errorf("%d figures run a driver, %d keys are pinned", n, len(quickDriverKeys))
	}
}

// TestDriversIgnoreWorkers pins the half of the driver purity contract a
// test can reach: every registered driver's table is the same bytes at 1
// and at 4 workers, with and without replicates.
func TestDriversIgnoreWorkers(t *testing.T) {
	byDriver := map[string]*scenario.Spec{}
	for _, name := range exp.FigureNames() {
		if s := exp.Specs[name](); s.Driver != "" {
			byDriver[s.Driver] = s
		}
	}
	for _, d := range scenario.DriverList() {
		s, ok := byDriver[d.Name]
		if !ok {
			if d.Name != "test-panics" {
				t.Errorf("driver %s runs in no figure", d.Name)
			}
			continue
		}
		for _, trials := range []int{1, 3} {
			var want []byte
			for _, workers := range []int{1, 4} {
				tab, err := scenario.Run(s, scenario.Opts{Quick: true, Seed: 1, Trials: trials, Parallel: workers})
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(tab)
				if err != nil {
					t.Fatal(err)
				}
				if want == nil {
					want = got
				} else if !bytes.Equal(got, want) {
					t.Errorf("%s, %d trials: the table at 4 workers differs from 1 worker's:\n%s\n%s", d.Name, trials, got, want)
				}
			}
		}
	}
}

// TestShardsAndSchedAreInert pins that Opts.Shards and Opts.Sched, kept
// only for the benchmark harness, are ignored: the same table bytes and
// the same cell keys as the zero Opts, on a figure and on the workload
// whose harness variants set them.
func TestShardsAndSchedAreInert(t *testing.T) {
	data, err := os.ReadFile("../../benchmark/workloads/baselines-websearch.json")
	if err != nil {
		t.Fatal(err)
	}
	websearch, err := scenario.Load(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*scenario.Spec{exp.Specs["fig3a"](), websearch} {
		plain := scenario.Opts{Quick: true, Seed: 1}
		shim := scenario.Opts{Quick: true, Seed: 1, Shards: 4, Sched: "wheel"}
		want, err := scenario.Run(s, plain)
		if err != nil {
			t.Fatal(err)
		}
		got, err := scenario.Run(s, shim)
		if err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("%s: Shards/Sched changed the table:\n--- Opts{}\n%s--- shim\n%s", s.Name, want, got)
		}
		wantKeys, err := scenario.CellKeys(s, plain)
		if err != nil {
			t.Fatal(err)
		}
		gotKeys, err := scenario.CellKeys(s, shim)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(gotKeys, wantKeys) {
			t.Errorf("%s: Shards/Sched moved the cell keys", s.Name)
		}
	}
}
