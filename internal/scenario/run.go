// Execution: Run compiles a Spec (compile.go) into a protocol ×
// sweep-point cell grid and evaluates it on the parallel sweep executor,
// or runs its custom driver as one cell. With Opts.Cache set, cell
// scalars and driver tables are memoized under their plans' keys and a
// rerun recomputes only what a changed plan addresses (DESIGN.md §8).

package scenario

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"pdq/internal/flowsim"
	"pdq/internal/obsv"
	"pdq/internal/sim"
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

// runDriver runs a custom-driver spec as one cell: its plan keys the
// whole table in the cell cache (DESIGN.md §8), and it hands Opts.Progress
// one record, Col "*", like a grid cell does; the driver's packet engines
// count into it.
func runDriver(s *Spec, o Opts) (*Table, error) {
	e, plan, err := planDriver(s, o)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	cache := o.Cache
	if o.Trace != nil {
		cache = nil // as in the grid (compile)
	}
	o.Progress.AddTotal(1)
	rec := obsv.Cell{Row: s.Driver, Col: "*", Seed: plan.Seed}
	start := o.Progress.CellStart()
	defer func() { o.Progress.CellEnd(start, rec) }()

	var t *Table
	var key string
	if cache != nil {
		key = plan.key()
		rec.Cached = cache.Get(key, func(data []byte) bool { t = decodeTable(data); return t != nil })
	}
	if t == nil {
		if t, err = plan.call(e.Fn, DriverCtx{Env: o.env(), Workers: o.workers(), stats: &rec.Engine}); err != nil {
			rec.Err = err.Error()
			return nil, fmt.Errorf("scenario %s: driver %s: %w", s.Name, s.Driver, err)
		}
		if cache != nil && !t.Partial() {
			cache.Put(key, encodeTable(t))
		}
	}
	if t.Partial() {
		rec.Err = t.Errors[0].Msg
	}
	t.Name, t.Desc = s.Name, s.Desc
	return t, nil
}

// planDriver resolves a custom-driver spec's entry and plan under o.
func planDriver(s *Spec, o Opts) (DriverEntry, driverPlan, error) {
	e, p, err := drivers.Resolve(s.Driver, overlay(s.Params, s.QuickParams, o.Quick))
	return e, driverPlan{Salt: driverSalt, Driver: s.Driver, Params: p, Seed: o.BaseSeed(), Trials: o.trials()}, err
}

// call runs the driver. A run guard tripping in one of its engines
// (Opts.MaxEvents, the watchdog) fails the driver's one cell: the table
// holds that error and no rows. A driver has no other cells to fail into,
// so any other panic (a parameter value its simulation cannot take) is
// the error returned.
func (p driverPlan) call(fn DriverFunc, rc DriverCtx) (t *Table, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case sim.EventLimitError, sim.InterruptError, flowsim.InterruptError:
			t, err = &Table{Errors: []CellError{{Row: p.Driver, Col: "*", Seed: p.Seed, Msg: panicMsg(r)}}}, nil
		default:
			t, err = nil, errors.New(panicMsg(r))
		}
	}()
	return fn(p, rc)
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
	rec  obsv.Cell // what the shared simulation counted
}

// simulate executes one simulation for a row binding on col's topology
// built at seed, tagging its telemetry capture with (colLabel, run) — run
// distinguishes replicates and search probes sharing one grid-cell tag.
// decided is the run's RunCtx.Decided: nil except for a search probe. The
// run's engine and flow outcomes are counted into c.
//
// The runner's build takes the topology from the engine's spares; a run
// that returns hands it back, and one that panics drops it.
func (e *engine) simulate(r *row, b *binding, col *column, flows []workload.Flow, seed int64, colLabel string, run int, decided func(workload.Tally) bool, c *obsv.Cell) []workload.Result {
	rc := RunCtx{Env: e.env, Horizon: e.plan.Horizon,
		Qdisc: b.qdisc, Faults: col.faults, Decided: decided, inspect: e.inspect, stats: &c.Engine}
	if e.trace != nil {
		rc.Cell = e.trace.OpenCell(trace.Cell{
			Scenario: e.spec.Name, Row: r.label, Col: colLabel, Seed: seed, Run: run,
		})
	}
	k := topoKey{col.topo, seed}
	var t *topo.Topology
	rs := b.runner.Make(b.plan.Params, seed)(func() *topo.Topology {
		t = e.takeTopo(k, col)
		return t
	}, flows, rc)
	if t != nil {
		e.putTopo(k, t)
	}
	for _, r := range rs {
		if r.Done() {
			c.FlowsDone++
		} else if r.Terminated {
			c.FlowsTerminated++
		}
	}
	return rs
}

// topoKey names a set of interchangeable topologies: the column's
// topology number (column.topo) and the seed it was built at.
type topoKey struct {
	topo int
	seed int64
}

// takeTopo returns a topology for key k: a spare one, or on a miss col's
// fresh build.
func (e *engine) takeTopo(k topoKey, col *column) *topo.Topology {
	e.topoMu.Lock()
	var t *topo.Topology
	if free := e.spares[k]; len(free) > 0 {
		t = free[len(free)-1]
		free[len(free)-1] = nil
		e.spares[k] = free[:len(free)-1]
	}
	e.topoMu.Unlock()
	if t == nil {
		return col.build(k.seed)
	}
	return t
}

// putTopo hands a finished run's topology back as a spare for key k,
// reset onto a fresh engine at once so that the run's agents and packets
// do not outlive it.
func (e *engine) putTopo(k topoKey, t *topo.Topology) {
	t.Reset(sim.New(), k.seed)
	e.topoMu.Lock()
	if e.spares == nil {
		e.spares = map[topoKey][]*topo.Topology{}
	}
	e.spares[k] = append(e.spares[k], t)
	e.topoMu.Unlock()
}

// sharedRun memoizes one simulation across the columns of a metric-only
// sweep. Whichever cell goroutine arrives first runs it, counting into the
// memo entry; the simulation is deterministic in its inputs, so the
// winner's results are the results. The entry's counts are credited to
// column 0's cell c alone, whichever goroutine won.
func (e *engine) sharedRun(key simMemoKey, ci int, c *obsv.Cell, run func(*obsv.Cell) []workload.Result) []workload.Result {
	e.simMu.Lock()
	ent, ok := e.simMemo[key]
	if !ok {
		ent = &simEntry{}
		e.simMemo[key] = ent
	}
	e.simMu.Unlock()
	ent.once.Do(func() { ent.rs = run(&ent.rec) })
	if ci == 0 {
		c.Engine.Add(&ent.rec.Engine)
		c.FlowsDone += ent.rec.FlowsDone
		c.FlowsTerminated += ent.rec.FlowsTerminated
	}
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
// event counts are pinned. The probe and its verdict are counted into c.
func (e *engine) value(r *row, b *binding, col *column, flows []workload.Flow, seed int64, colLabel string, run int, c *obsv.Cell) float64 {
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
	rs := e.simulate(r, b, col, flows, seed, colLabel, run, decided, c)
	c.Probes++
	if stopped {
		c.Decided++
	}
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

// cellKeyHash content-addresses one grid cell: its plan parts, encoded
// at compile (encodeKeys), at the replicate seed.
func (e *engine) cellKeyHash(ri, ci int, seed int64) string {
	_, col, b := e.resolve(ri, ci)
	return cellKey(e.enc, col.enc, b.enc, seed)
}

// cell evaluates one grid cell at its record's base seed, memoized
// through the cell cache when one is attached.
func (e *engine) cell(ri, ci int, c *obsv.Cell) float64 {
	if e.cache == nil {
		return e.compute(ri, ci, c)
	}
	key := e.cellKeyHash(ri, ci, c.Seed)
	if v, ok := e.cache.GetFloat(key); ok {
		c.Cached = true
		return v
	}
	v := e.compute(ri, ci, c)
	e.cache.PutFloat(key, v)
	return v
}

// compute runs one grid cell at its record's base seed, counting into the
// record.
func (e *engine) compute(ri, ci int, c *obsv.Cell) float64 {
	seed := c.Seed
	r, col, b := e.resolve(ri, ci)
	colLabel := e.cols[ci].label
	threshold := e.plan.Threshold
	switch e.plan.Mode {
	case "max-flows":
		run := 0
		return float64(stats.MaxN(1, col.plan.Hi, func(n int) bool {
			run++
			return e.value(r, b, col, col.gen(seed, n, 0), seed, colLabel, run-1, c) >= threshold
		}))
	case "max-rate":
		run := 0
		step := e.plan.RateStep
		n := stats.MaxN(1, e.plan.Steps, func(n int) bool {
			run++
			return e.value(r, b, col, col.gen(seed, 0, float64(n)*step), seed, colLabel, run-1, c) >= threshold
		})
		return float64(n) * step
	}
	// "" or "run".
	seeds := col.plan.SeedsPerCell
	sum := 0.0
	for s := 0; s < seeds; s++ {
		s := s
		flows := col.gen(seed+int64(s), 0, 0)
		var rs []workload.Result
		if e.shareSims {
			// Metric-only sweep: every column's simulation is
			// identical, so one run per (row, replicate) serves the
			// whole axis (traced cells carry Col "*").
			rs = e.sharedRun(simMemoKey{row: ri, rep: s, seed: seed}, ci, c, func(shared *obsv.Cell) []workload.Result {
				return e.simulate(r, b, col, flows, seed, "*", s, nil, shared)
			})
		} else {
			rs = e.simulate(r, b, col, flows, seed, colLabel, s, nil, c)
		}
		sum += b.metric.Fn(rs, flows, b.plan.MetricParams)
	}
	return sum / float64(seeds)
}

// run executes the compiled grid and assembles the table. Every cell runs
// once per replicate r, at base seed o.BaseSeed()+r·TrialSeedStride, and
// shows the replicates' mean, with their stderr when there are several.
// Each replicate fills one pre-labelled record, handed to the progress
// state machine when it ends, and runs under a recover: a panic (a bug, an
// exhausted event budget, a watchdog interrupt) makes its sample NaN and
// sets its record's Err, while every other cell completes; the table's
// Errors are the failed records, in grid order (DESIGN.md §11). A cell
// beyond its row's reach (ProtoSpec.Cols) is not a cell: it runs nothing,
// has no record and shows NaN.
func (e *engine) run(o Opts) *Table {
	nCols, k := len(e.cols), o.trials()
	t := &Table{Name: e.spec.Name, Desc: e.spec.Desc, Digits: e.spec.Digits}
	for _, c := range e.cols {
		t.Cols = append(t.Cols, c.label)
	}
	samples := make([]float64, len(e.rows)*nCols*k)
	recs := make([]obsv.Cell, len(samples))
	var fns []func() float64
	var at []int // the sample each fn fills
	p := o.Progress
	for ri, r := range e.rows {
		for ci := range nCols {
			for rep := range k {
				i := (ri*nCols+ci)*k + rep
				if r.cols > 0 && ci >= r.cols {
					samples[i] = math.NaN()
					continue
				}
				ri, ci := ri, ci // copied, or the closure moves the outer loops' variables to the heap
				rec := &recs[i]
				*rec = obsv.Cell{Row: r.label, Col: e.cols[ci].label, Rep: rep, Seed: o.seed() + int64(rep)*TrialSeedStride}
				at = append(at, i)
				fns = append(fns, func() (v float64) {
					start := p.CellStart()
					defer func() {
						if r := recover(); r != nil {
							rec.Err, v = panicMsg(r), math.NaN()
						}
						p.CellEnd(start, *rec)
					}()
					return e.cell(ri, ci, rec)
				})
			}
		}
	}
	p.AddTotal(len(fns))
	for j, v := range Gather(o.workers(), fns) {
		samples[at[j]] = v
	}
	for _, r := range recs {
		if r.Err != "" {
			t.Errors = append(t.Errors, CellError{Row: r.Row, Col: r.Col, Rep: r.Rep, Seed: r.Seed, Msg: r.Err})
		}
	}
	reps := func(i int) []float64 { return samples[i*k : (i+1)*k] } // cell i's replicates
	for ri, r := range e.rows {
		row := Row{Label: r.label}
		for c := range nCols {
			// The column's base: the first row's value in that column
			// ("base-row"), cell (0, 0) for every column ("first-cell" —
			// e.g. PDQ without packet loss in the lossy-link sweep), or 1.
			// A zero base counts as 1 so empty baselines do not divide by
			// zero; dividing by 1 is exact.
			base := 1.0
			switch e.spec.Normalize {
			case "base-row":
				base, _ = summarize(reps(c))
			case "first-cell":
				base, _ = summarize(reps(0))
			}
			if base == 0 {
				base = 1
			}
			mean, stderr := summarize(reps(ri*nCols + c))
			row.Vals = append(row.Vals, mean/base)
			if k > 1 {
				row.Errs = append(row.Errs, stderr/base)
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
