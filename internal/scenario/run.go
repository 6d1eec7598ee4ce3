// Execution: Run compiles a Spec (compile.go) into a protocol ×
// sweep-point cell grid and evaluates it on the parallel sweep executor.
// With Opts.Cache set, cell scalars are memoized under their plans' keys
// and a rerun recomputes only the cells whose plan changed (DESIGN.md §8).

package scenario

import (
	"fmt"
	"sync"

	"pdq/internal/stats"
	"pdq/internal/topo"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

// Run executes a spec and returns its result table.
func Run(s *Spec, o Opts) (*Table, error) {
	if o.Obs != nil && o.Progress == nil {
		// One sweep run per scenario: drivers and the grid engine inherit
		// the handle through Opts, and the run is stamped finished however
		// the scenario exits.
		o.Progress = o.Obs.StartRun(s.Name)
		defer o.Progress.Finish()
	}
	if s.Driver != "" {
		return runDriver(s, o)
	}
	eng, err := compile(s, o)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return eng.run(o), nil
}

// runDriver runs a custom-driver spec. A driver has no cells to fail
// into, so its panic (a parameter value its simulation cannot take)
// becomes the scenario's error.
func runDriver(s *Spec, o Opts) (t *Table, err error) {
	e, p, err := drivers.Resolve(s.Driver, overlay(s.Params, s.QuickParams, o.Quick))
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	defer func() {
		if r := recover(); r != nil {
			t, err = nil, fmt.Errorf("scenario %s: driver %s: %s", s.Name, s.Driver, panicMsg(r))
		}
	}()
	return e.Fn(s, p, o)
}

// MustRun is Run for specs authored in Go, where an invalid spec is a
// programming error.
func MustRun(s *Spec, o Opts) *Table {
	t, err := Run(s, o)
	if err != nil {
		panic(err)
	}
	return t
}

// simMemoKey identifies one shareable simulation: the row, the
// within-cell replicate index, and the replicate base seed.
type simMemoKey struct {
	row, rep int
	seed     int64
}

type simEntry struct {
	once sync.Once
	rs   []workload.Result
}

// simulate executes one simulation for a row binding, tagging its
// telemetry capture with (colLabel, run) — run distinguishes replicates
// and search probes sharing one grid-cell tag. decided is the run's
// RunCtx.Decided: nil except for a search probe.
func (e *engine) simulate(r *row, b *binding, col *column, build func() *topo.Topology, flows []workload.Flow, seed int64, colLabel string, run int, decided func(workload.Tally) bool) []workload.Result {
	rc := RunCtx{Env: e.env,
		Horizon: e.plan.Horizon, Shards: e.plan.Shards, Sched: e.plan.Sched,
		Qdisc: b.qdisc, Faults: col.faults, Decided: decided, inspect: e.inspect}
	if e.trace != nil {
		rc.Cell = e.trace.OpenCell(trace.Cell{
			Scenario: e.spec.Name, Row: r.label, Col: colLabel, Seed: seed, Run: run,
		})
	}
	return b.runner.Make(b.plan.Params, seed)(build, flows, rc)
}

// sharedRun memoizes one simulation across the columns of a metric-only
// sweep. Whichever cell goroutine arrives first runs it; the simulation
// is deterministic in its inputs, so the winner's results are the
// results.
func (e *engine) sharedRun(key simMemoKey, run func() []workload.Result) []workload.Result {
	e.simMu.Lock()
	ent, ok := e.simMemo[key]
	if !ok {
		ent = &simEntry{}
		e.simMemo[key] = ent
	}
	e.simMu.Unlock()
	ent.once.Do(func() { ent.rs = run() })
	return ent.rs
}

// value evaluates one search probe: one row binding on one flow set, for
// a caller that reads nothing off the result but `value >=
// e.plan.Threshold`.
//
// When the metric has an Interval, the simulation stops at the first flow
// outcome after which that comparison can no longer change: lo >=
// threshold (true whatever follows) or hi < threshold (false whatever
// follows). The metric of the cut-short results lies in [lo, hi] like the
// horizon's does (MetricEntry.Interval), so the caller's comparison, made
// on them unchanged, already has the truth value a full run gives it. The
// rule is looked at only inside outcomes the run has anyway, so the events
// up to the stop are a prefix of the full run's.
//
// Run-mode cells never come here: they report the value itself, and their
// event counts are pinned.
func (e *engine) value(r *row, b *binding, col *column, build func() *topo.Topology, flows []workload.Flow, seed int64, colLabel string, run int) float64 {
	if b.plan.Analytic != "" {
		return b.analytic.Fn(flows, b.plan.Params)
	}
	var decided func(workload.Tally) bool
	stopped := false
	if interval := b.metric.Interval; interval != nil {
		threshold := e.plan.Threshold
		decided = func(t workload.Tally) bool {
			lo, hi := interval(t, b.plan.MetricParams)
			stopped = lo >= threshold || hi < threshold // intervals only narrow: once true, true
			return stopped
		}
	}
	rs := e.simulate(r, b, col, build, flows, seed, colLabel, run, decided)
	e.progress.Probe(stopped)
	return b.metric.Fn(rs, flows, b.plan.MetricParams)
}

// resolve returns the row, column and binding that evaluate grid cell
// (ri, ci): fixed rows run the axis-free base column in every column.
func (e *engine) resolve(ri, ci int) (*row, *column, *binding) {
	r := &e.rows[ri]
	if r.fixed {
		return r, &e.baseCol, r.at(0)
	}
	return r, &e.cols[ci], r.at(ci)
}

// cellKeyHash content-addresses one grid cell: its plan at the replicate
// seed.
func (e *engine) cellKeyHash(ri, ci int, seed int64) string {
	_, col, b := e.resolve(ri, ci)
	return cellPlan{&e.plan, &col.plan, &b.plan, seed}.key()
}

// cell evaluates one grid cell at one base seed, memoized through the
// cell cache when one is attached.
func (e *engine) cell(ri, ci int, seed int64) float64 {
	if n := e.rows[ri].cols; n > 0 && ci >= n {
		return 0 // beyond this row's reach (e.g. packet level at scale)
	}
	if e.cache == nil {
		return e.compute(ri, ci, seed)
	}
	key := e.cellKeyHash(ri, ci, seed)
	if v, ok := e.cache.GetFloat(key); ok {
		e.progress.CacheHit()
		return v
	}
	v := e.compute(ri, ci, seed)
	e.cache.PutFloat(key, v)
	return v
}

// compute runs one grid cell at one base seed.
func (e *engine) compute(ri, ci int, seed int64) float64 {
	r, col, b := e.resolve(ri, ci)
	colLabel := e.cols[ci].label
	build := func() *topo.Topology { return col.build(seed) }
	threshold := e.plan.Threshold
	switch e.plan.Mode {
	case "max-flows":
		run := 0
		return float64(stats.MaxN(1, col.plan.Hi, func(n int) bool {
			run++
			return e.value(r, b, col, build, col.gen(seed, n, 0), seed, colLabel, run-1) >= threshold
		}))
	case "max-rate":
		run := 0
		step := e.plan.RateStep
		n := stats.MaxN(1, e.plan.Steps, func(n int) bool {
			run++
			return e.value(r, b, col, build, col.gen(seed, 0, float64(n)*step), seed, colLabel, run-1) >= threshold
		})
		return float64(n) * step
	}
	// "" or "run".
	seeds := col.plan.SeedsPerCell
	if b.plan.Level == "flow" && seeds > 1 && !e.shareSims {
		// The flow-level simulator only reads the topology (rates,
		// IDs, routing), so replicate seeds on the same
		// deterministic topology share one build instead of one per
		// replicate — results are identical either way. The
		// topology stays cell-local: concurrent cells build their
		// own (its routing caches are not synchronized).
		tp := col.build(seed)
		build = func() *topo.Topology { return tp }
	}
	sum := 0.0
	for s := 0; s < seeds; s++ {
		s := s
		flows := col.gen(seed+int64(s), 0, 0)
		if b.plan.Analytic != "" {
			sum += b.analytic.Fn(flows, b.plan.Params)
			continue
		}
		var rs []workload.Result
		if e.shareSims {
			// Metric-only sweep: every column's simulation is
			// identical, so one run per (row, replicate) serves the
			// whole axis (traced cells carry Col "*").
			rs = e.sharedRun(simMemoKey{row: ri, rep: s, seed: seed}, func() []workload.Result {
				return e.simulate(r, b, col, build, flows, seed, "*", s, nil)
			})
		} else {
			rs = e.simulate(r, b, col, build, flows, seed, colLabel, s, nil)
		}
		sum += b.metric.Fn(rs, flows, b.plan.MetricParams)
	}
	return sum / float64(seeds)
}

// run executes the compiled grid and assembles the table.
func (e *engine) run(o Opts) *Table {
	nCols := len(e.cols)
	t := &Table{Name: e.spec.Name, Desc: e.spec.Desc, Digits: e.spec.Digits}
	for _, c := range e.cols {
		t.Cols = append(t.Cols, c.label)
	}
	raw, failed := runGrid(o, len(e.rows), nCols, e.cell)
	for _, fe := range failed {
		ri, ci := fe.Trial/nCols, fe.Trial%nCols
		t.Errors = append(t.Errors, CellError{
			Row: e.rows[ri].label, Col: e.cols[ci].label,
			Rep: fe.Rep, Seed: fe.Seed, Msg: fe.Msg,
		})
	}
	for ri, r := range e.rows {
		row := Row{Label: r.label}
		for c := 0; c < nCols; c++ {
			// The column's base: the first row's value in that column
			// ("base-row"), cell (0, 0) for every column ("first-cell" —
			// e.g. PDQ without packet loss in the lossy-link sweep), or 1.
			// A zero base counts as 1 so empty baselines do not divide by
			// zero; dividing by 1 is exact.
			base := 1.0
			switch e.spec.Normalize {
			case "base-row":
				base = raw[c].Mean
			case "first-cell":
				base = raw[0].Mean
			}
			if base == 0 {
				base = 1
			}
			s := raw[ri*nCols+c]
			row.Vals = append(row.Vals, s.Mean/base)
			if o.trials() > 1 {
				row.Errs = append(row.Errs, s.Stderr/base)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
