package exp

import (
	"os"
	"path/filepath"
	"testing"

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
