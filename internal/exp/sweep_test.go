package exp

import (
	"math"
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

func TestRunTrialsSingle(t *testing.T) {
	o := scenario.Opts{Seed: 5, Parallel: 2}
	st := scenario.RunTrials(o, []scenario.Trial{
		func(seed int64) float64 { return float64(seed) },
		func(seed int64) float64 { return float64(2 * seed) },
	})
	if st[0].Mean != 5 || st[1].Mean != 10 {
		t.Errorf("single-trial means %v, want the cells evaluated at Opts.Seed", st)
	}
	if st[0].Stderr != 0 || st[1].Stderr != 0 {
		t.Errorf("single-trial stderr %v, want 0", st)
	}
}

func TestRunTrialsReplicates(t *testing.T) {
	o := scenario.Opts{Seed: 1, Trials: 4, Parallel: 2}
	// The cell returns its replicate index (0..3) so the mean and stderr
	// are known exactly: mean 1.5, stddev of {0,1,2,3} is ~1.29.
	st := scenario.RunTrials(o, []scenario.Trial{func(seed int64) float64 {
		return float64((seed - 1) / scenario.TrialSeedStride)
	}})
	if st[0].Mean != 1.5 {
		t.Errorf("mean %v, want 1.5", st[0].Mean)
	}
	want := math.Sqrt(5.0/3.0) / 2 // stddev/sqrt(n)
	if math.Abs(st[0].Stderr-want) > 1e-12 {
		t.Errorf("stderr %v, want %v", st[0].Stderr, want)
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
