// Execution: Run compiles a Spec (compile.go) into a protocol ×
// sweep-point cell grid and evaluates it on the parallel sweep executor;
// cells that read the same simulation share one run of it. With
// Opts.Cache set, cell scalars are memoized under their plans' keys and a
// rerun recomputes only what a changed plan addresses (DESIGN.md §8).

package scenario

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

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
		// One sweep run per scenario: the grid engine inherits the handle
		// through Opts, and the run is stamped finished however the
		// scenario exits.
		o.Progress = o.Obs.StartRun(s.Name)
		defer o.Progress.Finish()
	}
	eng, err := compile(s, o)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	return eng.run(o), nil
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

// simKey names one run of a simulation group (engine.sims): at the
// replicate rep's seed, with the cell's seed offset s (SeedsPerCell).
type simKey struct{ sim, rep, s int }

// simEntry is one run of a simulation group, read by every cell that
// shares it. owner is the record credited with its counts, rec: its first
// reader in grid order that the cache did not serve.
type simEntry struct {
	once    sync.Once
	owner   *obsv.Cell
	readers atomic.Int32 // readers yet to read it; the last drops the results
	flows   []workload.Flow
	rs      []workload.Result
	vals    []float64 // the group's probes' values
	failed  any       // the run's panic, raised again in every reader
	rec     obsv.Cell
}

// simulate executes one simulation for a row binding on col's topology
// built at seed, tagging its telemetry capture with (row, colLabel, run) —
// run distinguishes seed offsets and search probes sharing one grid-cell
// tag. decided is the run's RunCtx.Decided: nil except for a search probe.
// The link metrics probes read go into vals. The run's engine and flow
// outcomes are counted into c.
//
// The runner's build takes the topology from the engine's spares; a run
// that returns hands it back, and one that panics drops it.
func (e *engine) simulate(b *binding, col *column, flows []workload.Flow, seed int64, row, colLabel string, run int, decided func(workload.Tally) bool, probes []*binding, c *obsv.Cell) (rs []workload.Result, vals []float64) {
	rc := e.guards
	rc.Horizon, rc.Qdisc, rc.Faults, rc.Decided, rc.inspect, rc.stats = e.plan.Horizon, b.qdisc, col.faults, decided, e.inspect, &c.Engine
	if e.trace != nil {
		rc.Cell = e.trace.OpenCell(trace.Cell{
			Scenario: e.spec.Name, Row: row, Col: colLabel, Seed: seed, Run: run,
		})
	}
	reads := make([]func([]workload.Result) float64, len(probes))
	if len(probes) > 0 {
		rc.link = func(t *topo.Topology) {
			for i, p := range probes {
				reads[i] = p.metric.Link(t.Sim(), t.Hosts[p.host].Access.Peer, p.plan.MetricParams)
			}
		}
	}
	k := topoKey{col.topo, seed}
	var t *topo.Topology
	rs = b.runner.Make(b.plan.Params, seed)(func() *topo.Topology {
		t = e.takeTopo(k, col)
		return t
	}, flows, rc)
	for _, read := range reads {
		vals = append(vals, read(rs))
	}
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
	return rs, vals
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

// claim makes the memo entry of every run the records todo read, each
// owned by its first reader in grid order; k is the replicate count. It
// first groups the cells into sims (engine.simOf), in grid order, each
// link metric's probe joining its run's.
func (e *engine) claim(todo []int, recs []obsv.Cell, k int) {
	if len(todo) == 0 || e.plan.search() {
		return
	}
	e.memo = map[simKey]*simEntry{}
	for _, i := range todo {
		cell, n := i/k, len(e.cols)
		cs := &e.cells[cell]
		if cs.sim < 0 {
			_, col, b := e.resolve(cell/n, cell%n)
			cs.sim = e.simOf(b, col, e.rows[cell/n].label, cell%n)
			if b.ref != nil {
				cs.ref = e.simOf(b.ref, col, b.plan.Ref, cell%n)
			}
			if b.metric.Link != nil { // one probe per reader: readers of one run may differ in their metric
				g := &e.sims[cs.sim]
				cs.probe = len(g.probes)
				g.probes = append(g.probes, b)
			}
		}
		for s := range e.sims[cs.sim].col.plan.SeedsPerCell {
			for _, g := range [2]int{cs.sim, cs.ref} {
				if g < 0 {
					continue
				}
				key := simKey{g, i % k, s}
				ent := e.memo[key]
				if ent == nil {
					ent = &simEntry{owner: &recs[i]}
					e.memo[key] = ent
				}
				ent.readers.Add(1)
			}
		}
	}
}

// read returns run k of a simulation group at seed — its flows, results
// and probe values — for the cell whose record is c. Whichever reader
// arrives first runs it, counting into the entry; the simulation is
// deterministic in its inputs, so the winner's results are the results.
// The counts go to the owner's record alone, whichever goroutine ran it,
// and a run that panicked fails every reader with its panic.
func (e *engine) read(k simKey, seed int64, c *obsv.Cell) ([]workload.Flow, []workload.Result, []float64) {
	ent := e.memo[k]
	ent.once.Do(func() {
		defer func() { ent.failed = recover() }()
		g := &e.sims[k.sim]
		ent.flows = g.col.gen(seed+int64(k.s), 0, 0)
		ent.rs, ent.vals = e.simulate(g.b, g.col, ent.flows, seed, g.row, g.colLabel, k.s, nil, g.probes, &ent.rec)
	})
	if ent.owner == c {
		c.Engine.Add(&ent.rec.Engine)
		c.FlowsDone += ent.rec.FlowsDone
		c.FlowsTerminated += ent.rec.FlowsTerminated
	}
	if ent.failed != nil {
		panic(ent.failed)
	}
	flows, rs, vals := ent.flows, ent.rs, ent.vals
	if ent.readers.Add(-1) == 0 {
		ent.flows, ent.rs, ent.vals = nil, nil, nil
	}
	return flows, rs, vals
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
	rs, _ := e.simulate(b, col, flows, seed, r.label, colLabel, run, decided, nil, c)
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
	cs := &e.cells[ri*len(e.cols)+ci]
	sum := 0.0
	for s := range col.plan.SeedsPerCell {
		flows, rs, vals := e.read(simKey{cs.sim, c.Rep, s}, seed, c)
		switch {
		case cs.probe >= 0:
			sum += vals[cs.probe]
		case cs.ref >= 0:
			_, ref, _ := e.read(simKey{cs.ref, c.Rep, s}, seed, c)
			sum += b.metric.Pair(rs, ref, b.plan.MetricParams)
		default:
			sum += b.metric.Fn(rs, flows, b.plan.MetricParams)
		}
	}
	return sum / float64(col.plan.SeedsPerCell)
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
//
// With a cache, every cell reads its own key first, and the cells it does
// not serve compute and write theirs. Cells with equal plans have equal
// keys, so they are served or computed together, and computing run-mode
// cells read one simulation (engine.claim), credited to the first of them
// in grid order. So which cells compute, and which record a shared
// simulation is credited to, do not depend on the workers or the cache.
func (e *engine) run(o Opts) *Table {
	nCols, k := len(e.cols), o.trials()
	t := &Table{Name: e.spec.Name, Desc: e.spec.Desc, Digits: e.spec.Digits}
	for _, c := range e.cols {
		t.Cols = append(t.Cols, c.label)
	}
	samples := make([]float64, len(e.rows)*nCols*k)
	recs := make([]obsv.Cell, len(samples))
	todo := make([]int, 0, len(samples)) // the records of the cells
	p := o.Progress
	for i := range samples {
		cell, rep := i/k, i%k
		if r := &e.rows[cell/nCols]; r.cols > 0 && cell%nCols >= r.cols { // beyond its row's reach
			samples[i] = math.NaN()
			continue
		}
		todo = append(todo, i)
		recs[i] = obsv.Cell{Row: e.rows[cell/nCols].label, Col: e.cols[cell%nCols].label, Rep: rep, Seed: o.BaseSeed() + int64(rep)*TrialSeedStride}
	}
	p.AddTotal(len(todo))
	if e.cache != nil {
		miss := todo[:0]
		for _, i := range todo {
			if v, ok := e.cache.GetFloat(e.cellKeyHash(i/k/nCols, i/k%nCols, recs[i].Seed)); ok {
				samples[i], recs[i].Cached = v, true
				p.CellEnd(p.CellStart(), recs[i])
				continue
			}
			miss = append(miss, i)
		}
		todo = miss
	}
	e.claim(todo, recs, k)
	fns := make([]func() float64, len(todo))
	for j, i := range todo {
		rec := &recs[i]
		fns[j] = func() (v float64) {
			start := p.CellStart()
			defer func() {
				if r := recover(); r != nil {
					rec.Err, v = panicMsg(r), math.NaN()
				}
				p.CellEnd(start, *rec)
			}()
			ri, ci := i/k/nCols, i/k%nCols
			v = e.compute(ri, ci, rec)
			if e.cache != nil {
				e.cache.PutFloat(e.cellKeyHash(ri, ci, rec.Seed), v)
			}
			return v
		}
	}
	for j, v := range Gather(o.workers(), fns) {
		samples[todo[j]] = v
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
