package scenario

import (
	"encoding/json"
	"strings"
	"testing"

	"pdq/internal/obsv"
	"pdq/internal/trace"
)

// burstSpec is Fig. 7's driver at a small scale.
func burstSpec() *Spec {
	return &Spec{Name: "burst", Desc: "d", Driver: "burst-trace", Params: map[string]float64{"shorts": 5}}
}

// TestDriverTableIsCached pins a driver's table as one cell: the cold run
// simulates and stores it, the warm run serves the same bytes from the
// cache without firing an event, and both report one cell to the
// progress state machine.
func TestDriverTableIsCached(t *testing.T) {
	cache, err := trace.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var tables [2][]byte
	for pass := range tables {
		o := Opts{Cache: cache, Obs: obsv.New(nil)}
		tab, err := Run(burstSpec(), o)
		if err != nil {
			t.Fatal(err)
		}
		if tab.Name != "burst" || tab.Desc != "d" {
			t.Errorf("pass %d: table named %q, %q, want the spec's", pass, tab.Name, tab.Desc)
		}
		if tables[pass], err = json.Marshal(tab); err != nil {
			t.Fatal(err)
		}
		snap, fired := o.Obs.Runs()[0], o.Obs.Runtime.Snapshot().Fired
		if snap.Total != 1 || snap.Done != 1 || snap.Cached != uint64(pass) {
			t.Errorf("pass %d: %+v, want one cell done, cached on the warm pass", pass, snap)
		}
		if cold := pass == 0; cold != (fired > 0) {
			t.Errorf("pass %d fired %d events", pass, fired)
		}
	}
	if string(tables[0]) != string(tables[1]) {
		t.Errorf("the cached table differs from the simulated one:\n%s\n%s", tables[1], tables[0])
	}
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Errorf("hits=%d misses=%d, want 1 and 1", cache.Hits(), cache.Misses())
	}

	// Tracing skips the cache, as it does for grid cells.
	if _, err := Run(burstSpec(), Opts{Cache: cache, Trace: trace.New(true, false)}); err != nil {
		t.Fatal(err)
	}
	if cache.Hits() != 1 || cache.Misses() != 1 {
		t.Errorf("a traced run touched the cache: hits=%d misses=%d", cache.Hits(), cache.Misses())
	}

	// The seed, the replicate count and the quick overlay each move the key.
	s := burstSpec()
	s.QuickParams = map[string]float64{"shorts": 4}
	for _, o := range []Opts{{Seed: 2}, {Trials: 2}, {Quick: true}} {
		o.Cache = cache
		if _, err := Run(s, o); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Hits() != 1 {
		t.Errorf("a changed plan was served from the cache: %d hits", cache.Hits())
	}
}

// TestDriverRunGuards pins that a driver's engines run under the
// scenario's guards: a tripped event budget or watchdog fails the
// driver's one cell with a partial table, never the scenario, and never
// reaches the cache. An engine reports to the observability plane even
// when cut short.
func TestDriverRunGuards(t *testing.T) {
	guards := []struct {
		name  string
		o     Opts
		want  string
		fired uint64 // events the cut-short engine reports
	}{
		{"event budget", Opts{MaxEvents: 1000}, "event budget exhausted after 1000 events", 1000},
		// Interrupted before its first event.
		{"watchdog", Opts{Watchdog: func(interrupt func()) func() { interrupt(); return func() {} }}, "run interrupted", 0},
	}
	for _, g := range guards {
		for _, s := range []*Spec{burstSpec(), {Name: "conv", Driver: "convergence-trace"}} {
			t.Run(g.name+"/"+s.Driver, func(t *testing.T) {
				cache, err := trace.NewCache(t.TempDir())
				if err != nil {
					t.Fatal(err)
				}
				for pass := 0; pass < 2; pass++ {
					o := g.o
					o.Cache, o.Obs = cache, obsv.New(nil)
					tab, err := Run(s, o)
					if err != nil {
						t.Fatalf("a guard trip is the scenario's error: %v", err)
					}
					if len(tab.Errors) != 1 || len(tab.Rows) != 0 || !strings.Contains(tab.Errors[0].Msg, g.want) {
						t.Fatalf("want one failed cell (%q) and no rows:\n%s", g.want, tab)
					}
					if e := tab.Errors[0]; e.Row != s.Driver || e.Seed != DefaultSeed {
						t.Errorf("failed cell %+v, want row %s at seed %d", e, s.Driver, DefaultSeed)
					}
					snap := o.Obs.Runs()[0]
					if snap.Total != 1 || snap.Failed != 1 || snap.Done != 0 {
						t.Errorf("progress %+v, want one failed cell", snap)
					}
					if fired := o.Obs.Runtime.Snapshot().Fired; fired != g.fired {
						t.Errorf("the cut-short engine reported %d events, want %d", fired, g.fired)
					}
				}
				if cache.Hits() != 0 || cache.Misses() != 2 {
					t.Errorf("hits=%d misses=%d: a partial table was cached", cache.Hits(), cache.Misses())
				}
			})
		}
	}
}

// TestDriverPanicInWorkerIsAnError pins that a driver panic on one of
// Gather's worker goroutines is the scenario's error, as it is on one
// worker, rather than a crash of the process.
func TestDriverPanicInWorkerIsAnError(t *testing.T) {
	s := &Spec{Name: "t", Driver: "fct-ratio-cdf", Params: map[string]float64{"k": 3}}
	for _, workers := range []int{1, 4} {
		_, err := Run(s, Opts{Parallel: workers})
		if err == nil || !strings.Contains(err.Error(), "scenario t: driver fct-ratio-cdf: topo: fat-tree k=3") {
			t.Errorf("%d workers: error %v", workers, err)
		}
	}
}
