package scenario

import (
	"pdq/internal/obsv"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// SearchCell opens one simulated (row, column) cell of a compiled search
// spec to probe_test.go — package scenario_test, so that it can import the
// figure specs of internal/exp, which imports this package.
type SearchCell struct {
	e      *engine
	ri, ci int
	seed   int64

	Row, Col string
	Hi       int     // the search covers probes 1..Hi
	Scale    float64 // the cell's value is Scale × the largest passing probe
	Packet   bool    // packet level: the probe's engine clock and event count are reported
	Horizon  sim.Time
}

// SearchCells compiles a max-flows/max-rate spec and lists its simulated
// cells at o's base seed.
func SearchCells(s *Spec, o Opts) ([]SearchCell, error) {
	e, err := compile(s, o)
	if err != nil {
		return nil, err
	}
	e.progress = obsv.New(nil).StartRun(s.Name)
	var cells []SearchCell
	for ri := range e.rows {
		r := &e.rows[ri]
		if r.at(0).plan.Analytic != "" {
			continue
		}
		for ci := range e.cols {
			if r.cols > 0 && ci >= r.cols {
				continue
			}
			c := SearchCell{e: e, ri: ri, ci: ci, seed: o.BaseSeed(),
				Row: r.label, Col: e.cols[ci].label, Hi: e.cols[ci].plan.Hi, Scale: 1,
				Packet: r.at(0).plan.Level == "packet", Horizon: e.plan.Horizon}
			if e.plan.Mode == "max-rate" {
				c.Hi, c.Scale = e.plan.Steps, e.plan.RateStep
			}
			cells = append(cells, c)
		}
	}
	return cells, nil
}

// Compute is the cell's value as the sweep computes it.
func (c SearchCell) Compute() float64 { return c.e.compute(c.ri, c.ci, c.seed) }

// ProbeRun is what one simulation of a probe left behind.
type ProbeRun struct {
	OK      bool     // the verdict: metric >= threshold
	Metric  float64  // the metric of the results the run returned
	Stopped bool     // the run ended at its verdict, short of the horizon
	Now     sim.Time // packet level: engine clock after the run
	Events  uint64   // packet level: events fired
	// Intervals holds the metric interval at every flow outcome of a
	// Reference run, in order.
	Intervals [][2]float64
}

// resolve is compute's cell resolution plus a mirror of its per-mode flow
// draw; probe_test.go checks the mirror against Compute.
func (c SearchCell) resolve(n int) (r *row, b *binding, col *column, flows []workload.Flow) {
	e := c.e
	r, col, b = e.resolve(c.ri, c.ci)
	if e.plan.Mode == "max-rate" {
		return r, b, col, col.gen(c.seed, 0, float64(n)*e.plan.RateStep)
	}
	return r, b, col, col.gen(c.seed, n, 0)
}

// Probe runs probe n down the search's own path: engine.value, the stop
// rule armed, then the search's comparison.
func (c SearchCell) Probe(n int) ProbeRun {
	r, b, col, flows := c.resolve(n)
	var run ProbeRun
	defer c.observe(&run)()
	build := func() *topo.Topology { return col.build(c.seed) }
	before := c.e.progress.Snapshot()
	v := c.e.value(r, b, col, build, flows, c.seed, c.Col, 0)
	after := c.e.progress.Snapshot()
	if after.Probes != before.Probes+1 {
		panic("scenario: a probe was not counted")
	}
	run.OK, run.Metric, run.Stopped = v >= c.e.plan.Threshold, v, after.Decided > before.Decided
	return run
}

// Reference runs probe n to the horizon. With notes it is watched by a
// Decided that records the interval and never says stop; without, it is
// the nil-Decided run every run-mode cell is.
func (c SearchCell) Reference(n int, notes bool) ProbeRun {
	r, b, col, flows := c.resolve(n)
	var run ProbeRun
	defer c.observe(&run)()
	build := func() *topo.Topology { return col.build(c.seed) }
	var decided func(workload.Tally) bool
	if notes {
		decided = func(t workload.Tally) bool {
			lo, hi := b.metric.Interval(t, b.plan.MetricParams)
			run.Intervals = append(run.Intervals, [2]float64{lo, hi})
			return false
		}
	}
	rs := c.e.simulate(r, b, col, build, flows, c.seed, c.Col, 0, decided)
	run.Metric = b.metric.Fn(rs, flows, b.plan.MetricParams)
	run.OK = run.Metric >= c.e.plan.Threshold
	return run
}

// observe has a packet-level run record its engine's clock and event count
// into run, read inside the runner before the engine hands its storage on;
// the returned function stops it.
func (c SearchCell) observe(run *ProbeRun) func() {
	if c.Packet {
		c.e.inspect = func(tp *topo.Topology) { run.Now, run.Events = tp.Sim().Now(), tp.Sim().Processed() }
	}
	return func() { c.e.inspect = nil }
}

// CellKeys compiles a grid spec and lists the cache key of every cell the
// sweep would evaluate at o's base seed, in row-major order.
func CellKeys(s *Spec, o Opts) ([]string, error) {
	e, err := compile(s, o)
	if err != nil {
		return nil, err
	}
	var keys []string
	for ri := range e.rows {
		for ci := range e.cols {
			if n := e.rows[ri].cols; n > 0 && ci >= n {
				continue
			}
			keys = append(keys, e.cellKeyHash(ri, ci, o.BaseSeed()))
		}
	}
	return keys, nil
}
