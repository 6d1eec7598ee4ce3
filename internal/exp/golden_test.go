package exp

import (
	"flag"
	"os"
	"path/filepath"
	"testing"

	"pdq/internal/scenario"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden figure tables in testdata/")

// TestGoldenFigures pins the rendered output of a representative figure
// set at a fixed seed against golden files recorded with earlier engines:
// fig3a/fig10 date from before the PR-2 event-engine rewrite, and the
// rest were recorded from the hand-wired figure drivers immediately
// before the scenario-layer refactor — together they pin every scenario
// engine feature (pattern/scale/sizes cases, max-flows and max-rate
// searches, Poisson arrivals, base-row and first-cell normalization,
// load and runner-parameter axes, fixed baseline rows, shared runs, link
// and pair metrics, and flow generators) byte-identical to the legacy
// drivers. Regenerate
// with `go test ./internal/exp -run Golden -update` only when a
// deliberate semantic change is being made.
func TestGoldenFigures(t *testing.T) {
	for _, fig := range []string{"fig3a", "fig4a", "fig5a", "fig6", "fig8b",
		"fig8e", "fig9b", "fig10", "fig11a", "fig12"} {
		fig := fig
		t.Run(fig, func(t *testing.T) {
			got := Figures[fig](scenario.Opts{Quick: true, Seed: 7}).String()
			path := filepath.Join("testdata", fig+"_quick_seed7.golden")
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden (run with -update on a trusted engine): %v", err)
			}
			if got != string(want) {
				t.Errorf("%s output diverged from the pre-refactor engine:\n--- got ---\n%s\n--- want ---\n%s", fig, got, want)
			}
		})
	}
}
