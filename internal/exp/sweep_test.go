package exp

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"pdq/internal/scenario"
)

func TestGatherOrderAndWorkers(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		var fns []func() int
		for i := 0; i < 20; i++ {
			i := i
			fns = append(fns, func() int { return i * i })
		}
		got := scenario.Gather(workers, fns)
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d (input order lost)", workers, i, v, i*i)
			}
		}
	}
	if got := scenario.Gather[int](4, nil); len(got) != 0 {
		t.Errorf("Gather of no fns returned %v", got)
	}
}

// TestGatherRaisesLowestPanic pins that a panic on a worker goroutine
// reaches Gather's caller, and that it is the one a serial run raises.
func TestGatherRaisesLowestPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var fns []func() int
		for i := 0; i < 20; i++ {
			i := i
			fns = append(fns, func() int {
				if i == 7 || i == 13 {
					panic(i)
				}
				return i
			})
		}
		func() {
			defer func() {
				if r := recover(); r != 7 {
					t.Errorf("workers=%d: recovered %v, want fn 7's panic", workers, r)
				}
			}()
			scenario.Gather(workers, fns)
		}()
	}
}

// TestParallelMatchesSerial is the determinism golden test: the same
// Opts.Seed must produce identical Table rows at 1 worker and at N
// workers (Trials=1), down to the rendered bytes.
func TestParallelMatchesSerial(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 8
	}
	for _, fig := range []string{"fig3a", "fig11b"} {
		serial := Figures[fig](scenario.Opts{Quick: true, Seed: 7, Parallel: 1})
		par := Figures[fig](scenario.Opts{Quick: true, Seed: 7, Parallel: n})
		if !reflect.DeepEqual(serial.Rows, par.Rows) {
			t.Errorf("%s: rows differ between 1 worker and %d workers:\nserial:\n%s\nparallel:\n%s",
				fig, n, serial, par)
		}
		if serial.String() != par.String() {
			t.Errorf("%s: rendered tables not byte-identical", fig)
		}
	}
}

func TestTrialsAddStderrColumns(t *testing.T) {
	tab := Figures["fig11b"](scenario.Opts{Quick: true, Seed: 3, Trials: 3, Parallel: 2})
	for _, r := range tab.Rows {
		if len(r.Errs) != len(r.Vals) {
			t.Fatalf("row %q: %d stderr values for %d means", r.Label, len(r.Errs), len(r.Vals))
		}
	}
	if s := tab.String(); !strings.Contains(s, "±") {
		t.Errorf("multi-trial table rendering lacks ±:\n%s", s)
	}
}

func TestTableGetDuplicateColumnPanics(t *testing.T) {
	tab := &scenario.Table{Name: "dup", Cols: []string{"a", "b", "a"},
		Rows: []scenario.Row{{Label: "r", Vals: []float64{1, 2, 3}}}}
	defer func() {
		if recover() == nil {
			t.Error("Get on a table with duplicate columns did not panic")
		}
	}()
	tab.Get("r", "a")
}

func TestTableGetFirstColumnWins(t *testing.T) {
	tab := &scenario.Table{Name: "ok", Cols: []string{"x", "y"},
		Rows: []scenario.Row{{Label: "r", Vals: []float64{1, 2}}}}
	if got := tab.Get("r", "x"); got != 1 {
		t.Errorf("Get(r, x) = %v, want 1", got)
	}
	if got := tab.Get("r", "y"); got != 2 {
		t.Errorf("Get(r, y) = %v, want 2", got)
	}
}
