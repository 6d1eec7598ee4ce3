package exp

import (
	"os"
	"path/filepath"
	"testing"

	"pdq/internal/obsv"
	"pdq/internal/scenario"
)

// TestDumpAllFigures renders every figure at Quick scale to the directory
// named by PDQ_DUMP_DIR (skipped when unset). It is the wide-net companion
// to TestGoldenFigures: dump before a refactor, dump after, and diff the
// two trees to check the entire figure set — not just the pinned goldens —
// stayed byte-identical.
//
//	PDQ_DUMP_DIR=/tmp/before go test ./internal/exp -run TestDumpAllFigures
//	# ...refactor...
//	PDQ_DUMP_DIR=/tmp/after  go test ./internal/exp -run TestDumpAllFigures
//	diff -r /tmp/before /tmp/after
//
// With PDQ_DUMP_OBS=1 every figure additionally runs with the
// observability plane attached (DESIGN.md §13), so the same diff proves
// that enabling instrumentation changes no figure byte.
func TestDumpAllFigures(t *testing.T) {
	dir := os.Getenv("PDQ_DUMP_DIR")
	if dir == "" {
		t.Skip("PDQ_DUMP_DIR unset")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, fn := range Figures {
		o := scenario.Opts{Quick: true, Seed: 7}
		if os.Getenv("PDQ_DUMP_OBS") != "" {
			o.Obs = obsv.New(obsv.WallClock)
		}
		out := fn(o).String()
		if err := os.WriteFile(filepath.Join(dir, name+".txt"), []byte(out), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
