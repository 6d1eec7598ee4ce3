package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"pdq/internal/exp"
	"pdq/internal/scenario"
)

// workloadDef is one named input set. Scenario workloads run a
// benchmark-owned spec from workloads/ (examples/ may be edited by later
// changes); figure workloads run the 25 compiled-in figure specs.
type workloadDef struct {
	name string
	why  string
	// spec is the file under workloads/; "" means `pdqsim -exp all -quick`.
	spec string
	// parallel workloads simulate on P workers; the rest run -parallel 1.
	parallel bool
	// warmCache runs against a cache directory populated during set-up.
	warmCache bool
	// pinSeed keeps pdqsim's RNG seed at 1 whatever the harness seed is.
	// Heavy-tailed inputs make the work itself swing with the seed — at
	// this commit `-exp all -quick` took 1.6–6.2 s over seeds 1–10
	// (fig5a's max-rate search over VL2 sizes), web-search sizes 1.4–4.4 s
	// — and no bound survives that. The seed-steady workloads take the
	// harness seed as `pdqsim -seed`.
	pinSeed bool
	// cell is the representative cell the traced run drives by hand.
	cell *cellDef
	// shape returns the violated shape checks of the result tables.
	shape func(ts []*scenario.Table) []string
}

var workloads = []*workloadDef{
	{
		name: "pdq-tree",
		why:  "PDQ's four variants on the paper's 12-server tree with deadlines: internal/core does the protocol work, shallow heap, inlined tail-drop links",
		spec: "pdq-tree.json",
		cell: &cellDef{row: "PDQ(Full)", col: 3},
		shape: func(ts []*scenario.Table) []string {
			// Over the whole sweep, not per column: at 5 flows both
			// variants sit near 100 % and one missed 3 ms deadline among
			// 30 flows can order them either way.
			t := ts[0]
			full, basic := 0.0, 0.0
			for _, c := range t.Cols {
				full += t.Get("PDQ(Full)", c)
				basic += t.Get("PDQ(Basic)", c)
			}
			if full < basic {
				return []string{fmt.Sprintf("PDQ(Full) sums to %.1f over the sweep, below PDQ(Basic)'s %.1f", full, basic)}
			}
			return nil
		},
	},
	{
		name:    "baselines-websearch",
		why:     "TCP, DCTCP, pFabric, RCP, D3 and TCP on the prio qdisc under Poisson web-search flows: RTO timers, ECN marking and the two-event link path; internal/core idle",
		spec:    "baselines-websearch.json",
		pinSeed: true,
		cell:    &cellDef{row: "TCP+prio", col: 1},
		shape:   positive,
	},
	{
		name:  "fattree-k16",
		why:   "PDQ, TCP and DCTCP on a 1024-host fat-tree: topology build and path enumeration, a deep event heap, per-link state on 3k links, the largest RSS",
		spec:  "fattree-k16.json",
		cell:  &cellDef{row: "PDQ(Full)", col: 1},
		shape: positive,
	},
	{
		name: "flow-scale",
		why:  "flow-level PDQ, RCP and D3 on fat-tree k=8 and BCube(4,3): no event engine and no links, all time in the flowsim allocators; the control for packet-path changes",
		spec: "flow-scale.json",
		cell: &cellDef{row: "flow:PDQ", col: 0},
		shape: func(ts []*scenario.Table) []string {
			bad := positive(ts)
			t := ts[0]
			for _, c := range t.Cols {
				if p, r := t.Get("flow:PDQ", c), t.Get("flow:RCP", c); p >= r {
					bad = append(bad, fmt.Sprintf("flow:PDQ mean FCT %.2f >= flow:RCP %.2f on %s", p, r, c))
				}
			}
			return bad
		},
	},
	{
		name:     "figures-quick",
		why:      "pdqsim -exp all -quick on P workers, the everyday command: sweep executor, 25 spec compiles, fig5a's rate search, custom drivers; what a layer gain is worth on the real mix",
		parallel: true,
		pinSeed:  true,
	},
	{
		name:      "figures-warm-cache",
		why:       "the same command against a warm cell cache: process start, registry init, compile, key derivation and cache reads with no simulation; catches work moved into start-up",
		parallel:  true,
		warmCache: true,
		pinSeed:   true,
	},
}

func findWorkload(name string) *workloadDef {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// positive is the shape check of the mean-FCT tables: every cell > 0.
func positive(ts []*scenario.Table) []string {
	var bad []string
	for _, t := range ts {
		for _, r := range t.Rows {
			for i, v := range r.Vals {
				if !(v > 0) {
					bad = append(bad, fmt.Sprintf("%s: %s at %s is %g, want > 0", t.Name, r.Label, t.Cols[i], v))
				}
			}
		}
	}
	return bad
}

// pdqSeed is the seed that reaches pdqsim.
func (w *workloadDef) pdqSeed(seed int64) int64 {
	if w.pinSeed {
		return 1
	}
	return seed
}

// workersFor is the workload's -parallel value.
func (w *workloadDef) workersFor() int {
	if w.parallel {
		return workers()
	}
	return 1
}

// figureSet is what figure workloads pass to -exp: everything, or one
// cheap figure when smoke-testing.
func figureSet(smoke bool) string {
	if smoke {
		return "fig3a"
	}
	return "all"
}

// specData returns the workload's spec bytes.
func (w *workloadDef) specData(root string) ([]byte, error) {
	return os.ReadFile(filepath.Join(root, "benchmark", "workloads", w.spec))
}

// materialize writes the workload's inputs into dir: the spec file for
// scenario workloads, the (still empty) cache directory for
// figures-warm-cache.
func (w *workloadDef) materialize(root, dir string) error {
	if w.warmCache {
		return os.MkdirAll(filepath.Join(dir, "cache"), 0o755)
	}
	if w.spec == "" {
		return nil
	}
	data, err := w.specData(root)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, w.spec), data, 0o644)
}

// args is the pdqsim command line for one invocation with inputs in dir.
func (w *workloadDef) args(dir string, seed int64, smoke bool) []string {
	s := strconv.FormatInt(w.pdqSeed(seed), 10)
	p := strconv.Itoa(w.workersFor())
	if w.spec != "" {
		a := []string{"-scenario", filepath.Join(dir, w.spec), "-parallel", p, "-seed", s, "-json"}
		if smoke {
			a = append(a, "-quick")
		}
		return a
	}
	a := []string{"-exp", figureSet(smoke), "-quick", "-parallel", p, "-seed", s, "-json"}
	if w.warmCache {
		a = append(a, "-cache-dir", filepath.Join(dir, "cache"))
	}
	return a
}

// runInProcess makes the calls cmd/pdqsim makes for this workload —
// scenario.Load + scenario.Run, or every exp.Figures driver in order —
// with o's Seed, Parallel and Quick filled in for the workload.
func (w *workloadDef) runInProcess(root string, seed int64, smoke bool, o scenario.Opts) ([]*scenario.Table, error) {
	o.Seed = w.pdqSeed(seed)
	if o.Parallel == 0 {
		o.Parallel = w.workersFor()
	}
	if w.spec != "" {
		data, err := w.specData(root)
		if err != nil {
			return nil, err
		}
		spec, err := scenario.Load(data)
		if err != nil {
			return nil, err
		}
		o.Quick = smoke
		t, err := scenario.Run(spec, o)
		if err != nil {
			return nil, err
		}
		return []*scenario.Table{t}, nil
	}
	o.Quick = true
	names := exp.FigureNames()
	if smoke {
		names = []string{figureSet(true)}
	}
	var ts []*scenario.Table
	for _, n := range names {
		ts = append(ts, exp.Figures[n](o))
	}
	return ts, nil
}

// encodeTables renders tables exactly as `pdqsim -json` does, so child
// output and in-process results compare byte for byte.
func encodeTables(ts []*scenario.Table) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(ts); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// badCells counts cells that are not finite plus recorded cell failures,
// and the cells looked at.
func badCells(ts []*scenario.Table) (bad, cells int) {
	for _, t := range ts {
		bad += len(t.Errors)
		for _, r := range t.Rows {
			for _, v := range r.Vals {
				cells++
				if math.IsNaN(v) || math.IsInf(v, 0) {
					bad++
				}
			}
		}
	}
	return bad, cells
}
