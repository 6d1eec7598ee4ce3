package scenario_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"pdq/internal/exp"
	"pdq/internal/scenario"
	"pdq/internal/trace"
)

// quickFigureKeysSHA is SHA-256 over the sorted, newline-joined cell keys
// of all 25 figures at -quick -seed 1. It was computed with this test on
// the commit before compile became spec → plan → cell, re-pinned when
// cacheSalt went to v3, and again when the Optimal rows became flow:fluid
// rows and the RCP/D3 and max-fct rows named RCP and fct-quantile; a
// cache written by any build since stays addressable as long as it does
// not move.
const quickFigureKeysSHA = "a3c395e876c50f63160c2169dcd57a8cd2d031364e51f2d0a71fa0a7e56e06ea"

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

// TestCellKeysAreWholePlans checks every cell key the engine assembles
// from its encoded plan parts against the hash of the whole cell plan's
// JSON, at two replicate seeds: all 25 figures at quick and at full size,
// the benchmark workloads' specs and every example spec. TestCellKeysDidNotMove
// pins the quick figures' keys; this holds every other key a cache may
// already hold where it was.
func TestCellKeysAreWholePlans(t *testing.T) {
	specs := map[string]*scenario.Spec{}
	for _, name := range exp.FigureNames() {
		specs[name] = exp.Specs[name]()
	}
	for _, glob := range []string{"../../benchmark/workloads/*.json", "../../examples/scenarios/*.json"} {
		files, err := filepath.Glob(glob)
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: %v", glob, err)
		}
		for _, name := range files {
			data, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			s, err := scenario.Load(data)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			specs[name] = s
		}
	}
	cache, err := trace.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for name, s := range specs {
		if s.Driver != "" {
			continue
		}
		for _, quick := range []bool{true, false} {
			o := scenario.Opts{Quick: quick, Seed: 1, Cache: cache}
			got, want, err := scenario.CellKeyPairs(s, o, o.BaseSeed(), o.BaseSeed()+scenario.TrialSeedStride)
			if err != nil {
				t.Fatalf("%s, quick=%v: %v", name, quick, err)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%s, quick=%v: cell key %d is %s, the whole plan hashes to %s", name, quick, i, got[i], want[i])
				}
			}
			cells += len(got)
		}
	}
	if cells < 1000 {
		t.Errorf("compared %d cell keys, want every cell's", cells)
	}
}

// quickDriverKeys are the four custom-driver figures' table keys at
// -quick -seed 1: the driver-table half of what TestCellKeysDidNotMove
// pins for grid cells, re-pinned when driverSalt went to v2.
var quickDriverKeys = map[string]string{
	"fig1":  "39be19b508378508de8c746735b18b5d209aec6e6831c9fb646dc3d7507d5c86",
	"fig6":  "074c2313f79b7bcc48196341dfec8099ea5477d1f6d7216429a12581a1f40ad0",
	"fig7":  "532630b5c14ffeb05d9a03d261156eabf602afe5f91b827669a0ff6de713f2bb",
	"fig8e": "da1c8994d35c2109f1de9f2e571b8f0975e8af49c6867e4cad35abe837252a55",
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
