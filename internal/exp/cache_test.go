package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"pdq/internal/obsv"
	"pdq/internal/scenario"
	"pdq/internal/trace"
)

// TestCacheGoldenByteIdentity pins the sweep cache's core guarantee on a
// golden figure: a cold (all-miss) run and a warm (all-hit) rerun of
// fig3a both reproduce the pinned golden bytes exactly.
func TestCacheGoldenByteIdentity(t *testing.T) {
	cache, err := trace.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := scenario.Opts{Quick: true, Seed: 7, Cache: cache}
	want, err := os.ReadFile(filepath.Join("testdata", "fig3a_quick_seed7.golden"))
	if err != nil {
		t.Fatalf("missing golden: %v", err)
	}
	cold := Figures["fig3a"](o).String()
	if cold != string(want) {
		t.Fatalf("cold cached run diverged from golden:\n%s", cold)
	}
	if cache.Hits() != 0 || cache.Misses() == 0 {
		t.Fatalf("cold run: hits=%d misses=%d", cache.Hits(), cache.Misses())
	}
	misses := cache.Misses()
	warm := Figures["fig3a"](o).String()
	if warm != string(want) {
		t.Fatalf("cache-hit rerun diverged from golden:\n%s", warm)
	}
	if cache.Hits() != misses {
		t.Fatalf("warm run served %d hits, want %d (every cell)", cache.Hits(), misses)
	}
}

// TestWarmRunSimulatesNothing runs every quick figure twice against one
// cache with the observability plane attached: the second pass fires no
// event, serves every cell from the cache — a cell equal to an earlier one
// through it — and prints the first pass's bytes.
func TestWarmRunSimulatesNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every quick figure twice")
	}
	cache, err := trace.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var tables [2][]byte
	for pass := range tables {
		obs := obsv.New(nil)
		o := scenario.Opts{Quick: true, Seed: 1, Cache: cache, Obs: obs}
		var ts []*scenario.Table
		for _, name := range FigureNames() {
			ts = append(ts, Figures[name](o))
		}
		if tables[pass], err = json.Marshal(ts); err != nil {
			t.Fatal(err)
		}
		fired := obs.Runtime.Snapshot().Fired
		if pass == 0 {
			if fired == 0 {
				t.Fatal("the cold pass fired no event")
			}
			continue
		}
		if fired != 0 {
			t.Errorf("the warm pass fired %d events", fired)
		}
		for _, run := range obs.Runs() {
			if run.Done == 0 || run.Cached != run.Done || run.Failed != 0 {
				t.Errorf("%s: %d of %d cells cached, %d failed", run.Name, run.Cached, run.Done, run.Failed)
			}
		}
	}
	if !bytes.Equal(tables[0], tables[1]) {
		t.Error("the warm pass's tables differ from the cold pass's")
	}
}

// TestEqualCellsReadTheirOwnKeys pins that every cell reads and writes its
// own key, cells with equal keys — fig12's fixed RCP/D3 rows in every α
// column — included, while cells with equal plans still read one
// simulation: a cold cached run misses all 12 cells and keeps, at 1 and 4
// workers, the uncached run's records, and a warm rerun serves all 12 and
// fires no event.
func TestEqualCellsReadTheirOwnKeys(t *testing.T) {
	// records runs fig12 quick and returns its cell records, sorted, with
	// their wall times dropped, and the events the run fired.
	records := func(cache *trace.Cache, workers int) ([]string, uint64) {
		obs := obsv.New(nil)
		Figures["fig12"](scenario.Opts{Quick: true, Seed: 1, Cache: cache, Obs: obs, Parallel: workers})
		var recs []string
		for _, c := range obs.Runs()[0].Cells {
			c.WallNs = 0
			line, err := json.Marshal(c)
			if err != nil {
				t.Fatal(err)
			}
			recs = append(recs, string(line))
		}
		sort.Strings(recs)
		return recs, obs.Runtime.Snapshot().Fired
	}
	want, _ := records(nil, 1)
	for _, workers := range []int{1, 4} {
		cache, err := trace.NewCache(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := records(cache, workers)
		if cache.Hits() != 0 || cache.Misses() != 12 {
			t.Errorf("%d workers, cold: hits=%d misses=%d, want 0 and every one of the 12 cells", workers, cache.Hits(), cache.Misses())
		}
		if !slices.Equal(recs, want) {
			t.Errorf("%d workers, cold: records\n%s\nwant the uncached run's\n%s", workers, strings.Join(recs, "\n"), strings.Join(want, "\n"))
		}
		if _, fired := records(cache, workers); fired != 0 || cache.Hits() != 12 {
			t.Errorf("%d workers, warm: hits=%d and %d events fired, want 12 and none", workers, cache.Hits(), fired)
		}
	}
}

// TestCacheCorruptionFallsBackToRecompute scribbles over every persisted
// entry and reruns: the engine must silently recompute the identical
// figure, never crash or serve garbage.
func TestCacheCorruptionFallsBackToRecompute(t *testing.T) {
	dir := t.TempDir()
	cache, err := trace.NewCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	o := scenario.Opts{Quick: true, Seed: 7, Cache: cache}
	cold := Figures["fig3a"](o).String()
	corrupted := 0
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		corrupted++
		return os.WriteFile(path, []byte("garbage\x00not a float"), 0o644)
	})
	if err != nil || corrupted == 0 {
		t.Fatalf("corrupting %d entries: %v", corrupted, err)
	}
	again := Figures["fig3a"](o).String()
	if again != cold {
		t.Fatalf("recovery run diverged:\n%s\nvs\n%s", again, cold)
	}
	if cache.Errors() == 0 {
		t.Fatal("corrupt entries were not detected")
	}
	// The recovery run repaired the entries: one more run is all hits.
	before := cache.Hits()
	Figures["fig3a"](o)
	if cache.Hits() == before {
		t.Fatal("repaired cache served no hits")
	}
}
