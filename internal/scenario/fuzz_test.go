package scenario

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pdq/internal/trace"
)

// FuzzSpecCompile feeds arbitrary bytes through Load and compile, at quick
// and at full scale. Any input is an error or a plan, never a panic; no
// plan holds a negative time (negativeTime); every cell a plan holds
// marshals to valid JSON, and compiling the spec again gives every cell
// the same key, the hash of that JSON. The corpus is seeded with the
// shipped example and benchmark specs.
func FuzzSpecCompile(f *testing.F) {
	for _, glob := range []string{"../../examples/scenarios/*.json", "../../benchmark/workloads/*.json"} {
		files, err := filepath.Glob(glob)
		if err != nil {
			f.Fatal(err)
		}
		for _, name := range files {
			data, err := os.ReadFile(name)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(data)
		if err != nil {
			return
		}
		for _, quick := range []bool{true, false} {
			o := Opts{Quick: quick}
			e, err := compile(s, o)
			if err != nil {
				continue
			}
			if name := negativeTime(e); name != "" {
				t.Fatalf("quick=%v: the plan holds a negative %s", quick, name)
			}
			again, err := compile(s, o)
			if err != nil {
				t.Fatalf("quick=%v: the second compile failed: %v", quick, err)
			}
			e.encodeKeys()
			again.encodeKeys()
			for ri := range e.rows {
				for ci := range e.cols {
					_, col, b := e.resolve(ri, ci)
					material, err := json.Marshal(cellPlan{&e.plan, &col.plan, &b.plan, 1})
					if err != nil || !json.Valid(material) {
						t.Fatalf("quick=%v: cell (%d, %d) does not marshal to JSON: %v", quick, ri, ci, err)
					}
					k, k2 := e.cellKeyHash(ri, ci, 1), again.cellKeyHash(ri, ci, 1)
					if k != k2 {
						t.Fatalf("quick=%v: cell (%d, %d) keyed %s, then %s", quick, ri, ci, k, k2)
					}
					if want := trace.Key(material); k != want {
						t.Fatalf("quick=%v: cell (%d, %d) keyed %s, its plan's JSON hashes to %s", quick, ri, ci, k, want)
					}
				}
			}
		}
	})
}

// negativeTime names a time of e's plan that is negative, or returns "":
// the horizon, the deadlines' mean, the Poisson window, every fault time,
// the long-vs-shorts spacing and every metric window.
func negativeTime(e *engine) string {
	if e.plan.Horizon < 0 {
		return "horizon"
	}
	for _, c := range append([]column{e.baseCol}, e.cols...) {
		p := &c.plan
		switch {
		case p.MeanDeadlineMs < 0:
			return "mean_deadline_ms"
		case p.WindowMs < 0:
			return "window_ms"
		case p.CustomParams["spacing_ms"] < 0:
			return "spacing_ms"
		}
		for _, ev := range p.Faults {
			if min(ev.Down, ev.Up, ev.At, ev.Restart) < 0 {
				return "fault time"
			}
		}
	}
	for _, r := range e.rows {
		for _, b := range r.bound {
			for _, name := range []string{"after_ms", "from_ms", "to_ms"} {
				if b.plan.MetricParams[name] < 0 {
					return name
				}
			}
		}
	}
	return ""
}

// FuzzFaultSchedule runs one fuzzed fault — a link-down window, a switch
// crash or a gilbert-loss chain — on a small single-rooted-tree spec, once
// with a PDQ(Full) row and once with a flow:PDQ row. The spec goes through
// JSON and Load, so only what a user can write reaches compile. Every input
// is refused at compile or yields a table with no failed cell; the packet
// runs carry an event budget, so a run that cannot end fails its cell. The
// seeds under testdata/fuzz cover each kind and the refusals found so far.
// The fault sets only the fields its kind reads: compile refuses any other
// (TestFaultRefusesUnreadFields).
func FuzzFaultSchedule(f *testing.F) {
	kinds := []string{"link-down", "switch-crash", "gilbert-loss"}
	f.Fuzz(func(t *testing.T, kind uint8, host, sw int, aMs, bMs, restartMs, pgb, pbg, lossGood, lossBad float64) {
		fs := FaultSpec{Kind: kinds[int(kind)%len(kinds)]}
		switch fs.Kind {
		case "link-down":
			fs.Host, fs.DownMs, fs.UpMs = host, aMs, bMs
		case "switch-crash":
			fs.Switch, fs.AtMs, fs.RestartMs = sw, aMs, restartMs
		default:
			fs.Host, fs.PGB, fs.PBG, fs.LossGood, fs.LossBad = host, pgb, pbg, lossGood, lossBad
		}
		for _, runner := range []string{"PDQ(Full)", "flow:PDQ"} {
			data, err := json.Marshal(&Spec{
				Name:     "fault-fuzz",
				Topology: TopoSpec{Name: "single-rooted-tree", Params: map[string]float64{"tors": 2, "per_tor": 2}},
				Workload: WorkloadSpec{
					Pattern: PatternSpec{Name: "aggregation"},
					Sizes:   DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 200}},
					Count:   3,
				},
				Protocols: []ProtoSpec{{Runner: runner}},
				Metric:    MetricSpec{Name: "mean-fct"},
				HorizonMs: 20,
				Faults:    []FaultSpec{fs},
			})
			if err != nil {
				return // a NaN or an infinity: no JSON spec can say it
			}
			s, err := Load(data)
			if err != nil {
				t.Fatalf("%s: the marshalled spec does not load: %v", runner, err)
			}
			tab, err := Run(s, Opts{Parallel: 1, MaxEvents: 200_000})
			if err != nil {
				continue // refused at compile
			}
			if len(tab.Errors) > 0 {
				t.Fatalf("%s, fault %+v: failed cells:\n%s", runner, fs, tab)
			}
		}
	})
}
