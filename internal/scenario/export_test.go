package scenario

import (
	"encoding/json"

	"pdq/internal/obsv"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/trace"
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
	var cells []SearchCell
	for ri := range e.rows {
		r := &e.rows[ri]
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
func (c SearchCell) Compute() float64 { return c.e.compute(c.ri, c.ci, &obsv.Cell{Seed: c.seed}) }

// computeAlone is compute for one run-mode cell evaluated alone, its
// simulations claimed for it as run claims them for the cells it
// evaluates.
func (e *engine) computeAlone(ri, ci int, c *obsv.Cell) float64 {
	i := ri*len(e.cols) + ci
	recs := make([]obsv.Cell, len(e.cells))
	recs[i] = *c
	defer func() { *c = recs[i] }()
	e.memo = nil
	e.claim([]int{i}, recs, 1)
	return e.compute(ri, ci, &recs[i])
}

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
	var rec obsv.Cell
	v := c.e.value(r, b, col, flows, c.seed, c.Col, 0, &rec)
	if rec.Probes != 1 {
		panic("scenario: a probe was not counted")
	}
	run.OK, run.Metric, run.Stopped = v >= c.e.plan.Threshold, v, rec.Decided == 1
	return run
}

// Reference runs probe n to the horizon. With notes it is watched by a
// Decided that records the interval and never says stop; without, it is
// the nil-Decided run every run-mode cell is.
func (c SearchCell) Reference(n int, notes bool) ProbeRun {
	r, b, col, flows := c.resolve(n)
	var run ProbeRun
	defer c.observe(&run)()
	var decided func(workload.Tally) bool
	if notes {
		decided = func(t workload.Tally) bool {
			lo, hi := b.metric.Interval(t, b.plan.MetricParams)
			run.Intervals = append(run.Intervals, [2]float64{lo, hi})
			return false
		}
	}
	rs, _ := c.e.simulate(b, col, flows, c.seed, r.label, c.Col, 0, decided, nil, &obsv.Cell{})
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
	if e.enc == nil {
		e.encodeKeys() // compile encodes only for a cache
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

// CellKeyPairs compiles a grid spec under o, which must attach a cache,
// and returns for every cell CellKeys lists, at each seed, the key the
// engine derives from its encoded plan parts (got) and the hash of
// json.Marshal of the whole cell plan (want): the derivation every cached
// cell was written under before the parts were encoded apart.
func CellKeyPairs(s *Spec, o Opts, seeds ...int64) (got, want []string, err error) {
	e, err := compile(s, o)
	if err != nil {
		return nil, nil, err
	}
	for ri := range e.rows {
		for ci := range e.cols {
			if n := e.rows[ri].cols; n > 0 && ci >= n {
				continue
			}
			_, col, b := e.resolve(ri, ci)
			for _, seed := range seeds {
				material, err := json.Marshal(cellPlan{&e.plan, &col.plan, &b.plan, seed})
				if err != nil {
					return nil, nil, err
				}
				got = append(got, e.cellKeyHash(ri, ci, seed))
				want = append(want, trace.Key(material))
			}
		}
	}
	return got, want, nil
}
