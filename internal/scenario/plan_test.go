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
// of the 21 figures that were grids from the start, at -quick -seed 1. It
// was computed with this test on the commit before compile became spec →
// plan → cell, re-pinned when cacheSalt went to v3, and again when the
// Optimal rows became flow:fluid rows and the RCP/D3 and max-fct rows named
// RCP and fct-quantile; a cache written by any build since stays
// addressable as long as it does not move. sharedFigureKeysSHA pins the
// same for fig1, fig6, fig7 and fig8e, whose cells read shared
// simulations, since they became grids.
const (
	quickFigureKeysSHA  = "a3c395e876c50f63160c2169dcd57a8cd2d031364e51f2d0a71fa0a7e56e06ea"
	sharedFigureKeysSHA = "f9c8f0bc5441b5a63dabc9842cf05c9c52ec2484fe8b30f050f50eaba0c1ce48"
)

// sharedFigures are the figures sharedFigureKeysSHA pins.
var sharedFigures = []string{"fig1", "fig6", "fig7", "fig8e"}

// TestCellKeysDidNotMove pins the cell keys of every quick figure that
// was a grid from the start at once.
func TestCellKeysDidNotMove(t *testing.T) {
	pinCellKeys(t, quickFigureKeysSHA, func(name string) bool { return !slices.Contains(sharedFigures, name) })
}

// TestDriverKeysDidNotMove pins the quick cell keys of fig1, fig6, fig7
// and fig8e, the figures that custom drivers ran before they became grids.
func TestDriverKeysDidNotMove(t *testing.T) {
	pinCellKeys(t, sharedFigureKeysSHA, func(name string) bool { return slices.Contains(sharedFigures, name) })
}

// pinCellKeys checks the sorted quick cell keys of the figures pick
// selects against one hash.
func pinCellKeys(t *testing.T, want string, pick func(name string) bool) {
	t.Helper()
	var keys []string
	for _, name := range exp.FigureNames() {
		if !pick(name) {
			continue
		}
		ks, err := scenario.CellKeys(exp.Specs[name](), scenario.Opts{Quick: true, Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		keys = append(keys, ks...)
	}
	slices.Sort(keys)
	sum := sha256.Sum256([]byte(strings.Join(keys, "\n")))
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Errorf("%d cell keys hash to %s, want %s", len(keys), got, want)
	}
}

// TestCellKeysAreWholePlans checks every cell key the engine assembles
// from its encoded plan parts against the hash of the whole cell plan's
// JSON, at two replicate seeds: all 25 figures at quick and at full size,
// the benchmark workloads' specs and every example spec. TestCellKeysDidNotMove
// and TestDriverKeysDidNotMove pin the quick figures' keys; this holds every other key a cache may
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

// TestSharedSimulationsIgnoreWorkers pins that the figures whose cells
// share simulations (fig1, fig6, fig7, fig8e and fig12) give the same
// table bytes at 1 and at 4 workers, with and without replicates, though
// which cell's goroutine runs a shared simulation depends on the workers.
func TestSharedSimulationsIgnoreWorkers(t *testing.T) {
	for _, name := range append(sharedFigures, "fig12") {
		for _, trials := range []int{1, 3} {
			var want []byte
			for _, workers := range []int{1, 4} {
				tab, err := scenario.Run(exp.Specs[name](), scenario.Opts{Quick: true, Seed: 1, Trials: trials, Parallel: workers})
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
					t.Errorf("%s, %d trials: the table at 4 workers differs from 1 worker's:\n%s\n%s", name, trials, got, want)
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
