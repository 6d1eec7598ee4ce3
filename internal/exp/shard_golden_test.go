package exp

import (
	"os"
	"path/filepath"
	"testing"

	"pdq/internal/scenario"
)

// TestGoldenFiguresAcrossShardCounts pins that the sharded engine
// (DESIGN.md §12) changes nothing observable: every golden-pinned figure
// renders byte-identical to the pre-sharding goldens at every shard count,
// and with the timer-wheel backend. Packet-level runners exercise the real
// sharded path; flow-level and shard-unsafe runners must fall back to the
// single engine and come out untouched.
func TestGoldenFiguresAcrossShardCounts(t *testing.T) {
	figs := []string{"fig3a", "fig4a", "fig5a", "fig6", "fig8b",
		"fig8e", "fig9b", "fig10", "fig11a", "fig12"}
	if testing.Short() {
		figs = []string{"fig3a", "fig10"}
	}
	for _, fig := range figs {
		want, err := os.ReadFile(filepath.Join("testdata", fig+"_quick_seed7.golden"))
		if err != nil {
			t.Fatalf("missing golden (run TestGoldenFigures with -update first): %v", err)
		}
		for _, shards := range []int{1, 2, 4, 8} {
			got := Figures[fig](scenario.Opts{Quick: true, Seed: 7, Shards: shards}).String()
			if got != string(want) {
				t.Errorf("%s at shards=%d diverged from the pre-sharding golden:\n--- got ---\n%s--- want ---\n%s",
					fig, shards, got, want)
			}
		}
		got := Figures[fig](scenario.Opts{Quick: true, Seed: 7, Shards: 4, Sched: "wheel"}).String()
		if got != string(want) {
			t.Errorf("%s with the wheel backend diverged from the golden:\n--- got ---\n%s--- want ---\n%s",
				fig, got, want)
		}
	}
}
