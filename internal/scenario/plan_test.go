package scenario_test

import (
	"crypto/sha256"
	"encoding/hex"
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
