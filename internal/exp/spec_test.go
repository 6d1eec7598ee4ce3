package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pdq/internal/scenario"
)

// TestSpecsRoundTripJSON pins that every figure spec survives a JSON
// round trip: marshal → unmarshal → marshal must be byte-stable, so the
// specs pdqsim -dump-scenario prints are faithful templates.
func TestSpecsRoundTripJSON(t *testing.T) {
	for name, sf := range Specs {
		t.Run(name, func(t *testing.T) {
			first, err := json.Marshal(sf())
			if err != nil {
				t.Fatal(err)
			}
			var back scenario.Spec
			if err := json.Unmarshal(first, &back); err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			second, err := json.Marshal(&back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("round trip not byte-stable:\nfirst:  %s\nsecond: %s", first, second)
			}
		})
	}
}

// TestFigureSpecsMatchNames pins that each spec's Name field matches its
// registry key, which the table headers rely on.
func TestFigureSpecsMatchNames(t *testing.T) {
	for name, sf := range Specs {
		if got := sf().Name; got != name {
			t.Errorf("spec %q has Name %q", name, got)
		}
	}
}

// exampleSpecs loads every shipped example scenario.
func exampleSpecs(t *testing.T) map[string]*scenario.Spec {
	t.Helper()
	dir := filepath.Join("..", "..", "examples", "scenarios")
	files, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("expected at least 3 example scenarios in %s, found %d", dir, len(files))
	}
	out := map[string]*scenario.Spec{}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		spec, err := scenario.Load(data)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		out[f] = spec
	}
	return out
}

// TestExampleScenariosRoundTrip pins the shipped example specs: they
// parse, round-trip through JSON byte-stably, and execute end-to-end in
// quick mode with plausible tables — proving new scenarios need zero new
// Go code.
func TestExampleScenariosRoundTrip(t *testing.T) {
	for f, spec := range exampleSpecs(t) {
		f, spec := f, spec
		t.Run(filepath.Base(f), func(t *testing.T) {
			first, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			var back scenario.Spec
			if err := json.Unmarshal(first, &back); err != nil {
				t.Fatal(err)
			}
			second, err := json.Marshal(&back)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(first, second) {
				t.Errorf("round trip not byte-stable:\nfirst:  %s\nsecond: %s", first, second)
			}

			tab, err := scenario.Run(spec, scenario.Opts{Quick: true})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(tab.Rows) == 0 || len(tab.Cols) == 0 {
				t.Fatalf("empty result table:\n%s", tab)
			}
			for _, r := range tab.Rows {
				if len(r.Vals) != len(tab.Cols) {
					t.Errorf("row %q has %d values for %d columns", r.Label, len(r.Vals), len(tab.Cols))
				}
			}
		})
	}
}
