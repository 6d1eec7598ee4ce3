// Compilation: spec → plan → bound cell grid. A plan is a cell's
// resolved material as plain data — three structs (run level, column,
// row) that compile fills from the spec and the registries, so a
// malformed spec fails with an error before any simulation starts. The
// closures that build, draw, run and reduce a cell are made by the plans'
// bind methods from the plan alone: nothing reaches a cell's value except
// through a plan field, so the plans' canonical JSON plus the replicate
// seed is the cell's content-address key (DESIGN.md §8).

package scenario

import (
	"cmp"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"

	"pdq/internal/fault"
	"pdq/internal/netsim"
	"pdq/internal/params"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

// cacheSalt versions the cell cache: bump it whenever a simulator or
// metric changes semantics, so stale entries from older engines can
// never be served as current results. v2: loss coins moved from the
// network-global RNG to per-link streams (DESIGN.md §3), so lossy
// cells produce different (equally valid) samples for the same seed.
// v3: flow:RCP fills by water level (DESIGN.md §4), so its rates may move
// in the last bits.
const cacheSalt = "pdqsim-cell-v3"

// The plan structs marshal into the cache key: their field order, JSON
// names and omitempty tags are its bytes, and changing any of them
// orphans every cached cell. Parameter maps marshal with sorted keys, so
// the JSON form is canonical. With a cache attached, compile encodes each
// part once (engine.encodeKeys) and a cell's key is assembled from the
// parts' bytes (cellKey); nothing writes a plan after compile.

// engPlan is the run-level plan shared by every cell.
type engPlan struct {
	Salt      string   `json:"salt"`
	Mode      string   `json:"mode,omitempty"`
	Threshold float64  `json:"threshold,omitempty"`
	Steps     int      `json:"steps,omitempty"`
	RateStep  float64  `json:"rate_step,omitempty"`
	Horizon   sim.Time `json:"horizon"`
}

// colPlan is one resolved sweep point: everything the column contributes
// to a cell's value, after quick-mode resolution and axis application.
type colPlan struct {
	topoPlan
	Custom         string             `json:"custom,omitempty"`
	CustomParams   map[string]float64 `json:"custom_params,omitempty"`
	Pattern        PatternSpec        `json:"pattern"`
	Sizes          DistSpec           `json:"sizes"`
	MeanDeadlineMs float64            `json:"mean_deadline_ms,omitempty"`
	ShortOnly      bool               `json:"short_only,omitempty"`
	Count          int                `json:"count,omitempty"`
	CountPerHost   float64            `json:"count_per_host,omitempty"`
	Take           float64            `json:"take,omitempty"`
	Hosts          int                `json:"hosts"` // hosts the workload draws over
	SeedsPerCell   int                `json:"seeds_per_cell"`
	Poisson        bool               `json:"poisson,omitempty"`
	PoissonRate    float64            `json:"poisson_rate,omitempty"`
	WindowMs       float64            `json:"window_ms,omitempty"`
	Hi             int                `json:"hi,omitempty"` // max-flows bound
	// Faults is the column's resolved fault schedule: a faulted cell must
	// content-address differently from its fault-free twin.
	Faults []fault.Event `json:"faults,omitempty"`
}

// topoPlan is the part of a colPlan that builds the column's topology.
// Embedded, its fields marshal in place, as the leading fields of colPlan.
type topoPlan struct {
	Topo       string             `json:"topo"`
	TopoParams map[string]float64 `json:"topo_params,omitempty"`
	HasLoss    bool               `json:"has_loss,omitempty"`
	LossHost   int                `json:"loss_host,omitempty"` // resolved, counted from host 0
	LossRate   float64            `json:"loss_rate,omitempty"`
}

// equal reports whether p and q build the same topology: every field
// equal.
func (p *topoPlan) equal(q *topoPlan) bool {
	return p.Topo == q.Topo && maps.Equal(p.TopoParams, q.TopoParams) &&
		p.HasLoss == q.HasLoss && p.LossHost == q.LossHost && p.LossRate == q.LossRate
}

// rowPlan is one protocol row resolved against one column (runner and
// metric parameters can carry the sweep axis).
type rowPlan struct {
	Runner       string             `json:"runner,omitempty"`
	Params       map[string]float64 `json:"params,omitempty"` // the runner's
	Metric       string             `json:"metric,omitempty"`
	MetricParams map[string]float64 `json:"metric_params,omitempty"`
	Level        string             `json:"level,omitempty"` // runner simulator level: "packet" or "flow"
	Qdisc        string             `json:"qdisc,omitempty"`
	QdiscParams  map[string]float64 `json:"qdisc_params,omitempty"`
	Ref          string             `json:"ref,omitempty"` // the pair metric's reference runner
	RefParams    map[string]float64 `json:"ref_params,omitempty"`
}

// sameRun reports whether p and q run the same simulation on one column:
// the same runner, parameters and link discipline, whatever the metric.
func (p *rowPlan) sameRun(q *rowPlan) bool {
	return p.Runner == q.Runner && maps.Equal(p.Params, q.Params) &&
		p.Qdisc == q.Qdisc && maps.Equal(p.QdiscParams, q.QdiscParams)
}

// cellKey content-addresses one grid cell: the hash of
// {"eng":E,"col":C,"row":R,"seed":N} from its plan parts' JSON, which is
// byte for byte the JSON of one struct holding the three parts and the
// replicate seed, so keys written before the parts were encoded apart
// still hit.
func cellKey(eng, col, row []byte, seed int64) string {
	var buf [1024]byte // on the stack: the shipped specs' material is at most about 450 bytes
	m := append(buf[:0], `{"eng":`...)
	m = append(m, eng...)
	m = append(m, `,"col":`...)
	m = append(m, col...)
	m = append(m, `,"row":`...)
	m = append(m, row...)
	m = append(m, `,"seed":`...)
	m = strconv.AppendInt(m, seed, 10)
	return trace.Key(append(m, '}'))
}

// planJSON is a plan's canonical JSON.
func planJSON(plan any) []byte {
	material, err := json.Marshal(plan)
	if err != nil {
		panic(fmt.Sprintf("scenario: marshaling cache key: %v", err))
	}
	return material
}

// column is one compiled sweep point: its plan, and the topology
// construction and flow generation bound from it.
type column struct {
	label       string
	plan        colPlan
	runnerPatch map[string]float64 // "runner:<param>" axis value, nil otherwise
	metricPatch map[string]float64 // "metric:<param>" axis value, nil otherwise
	metric      *MetricSpec        // the sweep case's metric, nil otherwise
	// topo numbers the column's topoPlan among the engine's columns:
	// columns that build the same topology share its spares (topoKey).
	topo int
	// enc is plan's JSON, the column's part of its cells' keys; nil
	// unless encodeKeys ran.
	enc []byte
	colBound
}

// colBound is what colPlan.bind makes.
type colBound struct {
	build func(seed int64) *topo.Topology // a fresh build
	// gen draws the column's flow set; n > 0 overrides the batch size
	// (max-flows search), rate > 0 overrides the Poisson rate (max-rate).
	gen     func(seed int64, n int, rate float64) []workload.Flow
	faults  *fault.Schedule  // nil when the spec has none
	pattern workload.Pattern // nil under a custom flow generator
}

// row is one compiled protocol row.
type row struct {
	label string
	fixed bool
	cols  int
	// bound holds the row resolved against each column; a fixed row has
	// a single entry (see at).
	bound []binding
}

// at returns the row's binding for column ci.
func (r *row) at(ci int) *binding {
	if len(r.bound) == 1 {
		return &r.bound[0]
	}
	return &r.bound[ci]
}

// binding is a rowPlan and the registry entries rowPlan.bind looked up
// for it; the entries' functions take their parameters from the plan.
type binding struct {
	plan   rowPlan
	enc    []byte // plan's JSON, the binding's part of its cells' keys; nil unless encodeKeys ran
	runner RunnerEntry
	metric MetricEntry
	qdisc  func() netsim.Qdisc // the row's `qdisc:` override factory, nil when unset
	ref    *binding            // the Ref runner's, nil without one
	host   int                 // a link metric's host, counted from host 0
}

// engine is a compiled spec: the bound cell grid and how to run it.
type engine struct {
	spec    *Spec
	plan    engPlan
	enc     []byte // plan's JSON, every cell's part of its key; nil unless encodeKeys ran
	cols    []column
	baseCol column // the spec without any axis applied; fixed rows use it
	rows    []row
	guards  RunCtx // every run's MaxEvents and Watchdog
	trace   *trace.Trace
	cache   *trace.Cache

	// cells holds what each grid cell shares, in grid order (ri·len(cols)
	// + ci), and sims the simulations the computing cells of a run-mode
	// grid read (engine.claim).
	cells []cellShare
	sims  []simGroup
	// memo holds one run's simulations while its cells read them
	// (engine.claim); read-only while cells run.
	memo map[simKey]*simEntry

	// spares holds the topologies finished runs handed back, for later
	// runs of this Run to reset instead of rebuilding (takeTopo). It dies
	// with the engine.
	topoMu sync.Mutex
	spares map[topoKey][]*topo.Topology

	inspect func(*topo.Topology) // every run's RunCtx.inspect; set by tests
}

// search reports whether cells are read off a binary search.
func (p *engPlan) search() bool { return p.Mode == "max-flows" || p.Mode == "max-rate" }

func compile(s *Spec, o Opts) (*engine, error) {
	if len(s.Protocols) == 0 {
		return nil, fmt.Errorf("no protocols")
	}
	horizon, err := msTime("horizon_ms", quickFloat(s.HorizonMs, s.QuickHorizonMs, o.Quick))
	if err != nil {
		return nil, err
	}
	e := &engine{
		spec: s,
		plan: engPlan{
			Salt: cacheSalt, Mode: s.Eval.Mode, Threshold: s.Eval.Threshold,
			Steps:    quickInt(s.Eval.Steps, s.Eval.QuickSteps, o.Quick),
			RateStep: s.Eval.RateStep,
			Horizon:  horizon,
		},
		guards: RunCtx{MaxEvents: o.MaxEvents, Watchdog: o.Watchdog},
		trace:  o.Trace,
		cache:  o.Cache,
	}
	if e.trace != nil {
		// A cache hit skips the simulation that would emit the records, so
		// traced runs always compute.
		e.cache = nil
	}
	p := &e.plan
	switch p.Mode {
	case "", "run", "max-flows", "max-rate":
	default:
		return nil, fmt.Errorf("unknown eval mode %q", p.Mode)
	}
	switch s.Normalize {
	case "", "base-row", "first-cell":
	default:
		return nil, fmt.Errorf("unknown normalize mode %q", s.Normalize)
	}

	base, err := compileColumn(s, o, "", 0, nil)
	if err != nil {
		return nil, err
	}
	e.baseCol = *base

	if e.cols, err = compileSweep(s, o, base); err != nil {
		return nil, err
	}
	e.numberTopologies()

	// Search modes need usable bounds, or MaxN panics mid-sweep — and a
	// threshold, or every probe passes and the search simulates log₂(hi)+1
	// times to report hi.
	if p.search() && !(p.Threshold > 0) {
		return nil, fmt.Errorf("%s needs eval.threshold > 0", p.Mode)
	}
	switch p.Mode {
	case "max-flows":
		for _, c := range e.cols {
			if c.plan.Hi < 1 {
				return nil, fmt.Errorf("max-flows needs eval.hi (or hi_per_host) >= 1")
			}
		}
	case "max-rate":
		if p.Steps < 1 {
			return nil, fmt.Errorf("max-rate needs eval.steps >= 1")
		}
		if p.RateStep <= 0 {
			return nil, fmt.Errorf("max-rate needs eval.rate_step > 0")
		}
	}

	for _, ps := range s.Protocols {
		r, err := compileRow(s, ps, e.cols, &e.baseCol, p.search())
		if err != nil {
			return nil, err
		}
		e.rows = append(e.rows, *r)
	}
	if e.cache != nil {
		e.encodeKeys()
	}
	e.cells = make([]cellShare, len(e.rows)*len(e.cols))
	for i := range e.cells {
		e.cells[i] = cellShare{sim: -1, ref: -1, probe: -1}
	}
	return e, nil
}

// encodeKeys encodes every plan part a cell key is made of, once: the
// engine's plan, each column's, the base column's among them, and each
// binding's. A spec without a sweep runs its base column, whose JSON the
// single column shares.
func (e *engine) encodeKeys() {
	e.enc = planJSON(&e.plan)
	e.baseCol.enc = planJSON(&e.baseCol.plan)
	for i := range e.cols {
		if e.spec.Sweep == nil {
			e.cols[i].enc = e.baseCol.enc
		} else {
			e.cols[i].enc = planJSON(&e.cols[i].plan)
		}
	}
	for ri := range e.rows {
		for bi := range e.rows[ri].bound {
			b := &e.rows[ri].bound[bi]
			b.enc = planJSON(&b.plan)
		}
	}
}

// numberTopologies sets every column's topo, the base column's among
// them: columns whose topoPlans are equal share a number.
func (e *engine) numberTopologies() {
	var distinct []*topoPlan
	number := func(c *column) {
		p := &c.plan.topoPlan
		c.topo = slices.IndexFunc(distinct, p.equal)
		if c.topo < 0 {
			c.topo = len(distinct)
			distinct = append(distinct, p)
		}
	}
	number(&e.baseCol)
	for i := range e.cols {
		number(&e.cols[i])
	}
}

// compileSweep expands the sweep axis into per-column specs. base is the
// compiled axis-free spec; with no sweep the single column is base
// itself.
func compileSweep(s *Spec, o Opts, base *column) ([]column, error) {
	if s.Sweep == nil {
		c := *base
		c.label = s.ColLabel
		if c.label == "" {
			c.label = "value"
		}
		return []column{c}, nil
	}
	sw := s.Sweep
	if len(sw.Cases)+len(sw.QuickCases) > 0 && (sw.Axis != "" ||
		len(sw.Values)+len(sw.QuickValues)+len(sw.Labels)+len(sw.QuickLabels) > 0) {
		return nil, fmt.Errorf("sweep sets cases and axis, values or labels: cases ignore the others")
	}
	cases := sw.Cases
	if o.Quick && len(sw.QuickCases) > 0 {
		cases = sw.QuickCases
	}
	if len(cases) > 0 {
		out := make([]column, 0, len(cases))
		for i, cs := range cases {
			cs := cs
			col, err := compileColumn(s, o, "", 0, &cs)
			if err != nil {
				return nil, fmt.Errorf("sweep case %d: %w", i, err)
			}
			out = append(out, *col)
		}
		return out, nil
	}
	values := sw.Values
	if o.Quick && len(sw.QuickValues) > 0 {
		values = sw.QuickValues
	}
	if len(values) == 0 {
		return nil, fmt.Errorf("sweep has neither values nor cases")
	}
	labels := sw.Labels
	if o.Quick && len(sw.QuickLabels) > 0 {
		labels = sw.QuickLabels
	}
	if labels != nil && len(labels) != len(values) {
		return nil, fmt.Errorf("sweep has %d labels for %d values", len(labels), len(values))
	}
	out := make([]column, 0, len(values))
	for i, v := range values {
		label := fmt.Sprintf("%g", v)
		if labels != nil {
			label = labels[i]
		}
		col, err := compileColumn(s, o, sw.Axis, v, nil)
		if err != nil {
			return nil, fmt.Errorf("sweep %s=%g: %w", sw.Axis, v, err)
		}
		col.label = label
		out = append(out, *col)
	}
	return out, nil
}

// compileColumn plans and binds one sweep point: the base spec with
// either a numeric axis value or a structured case applied.
func compileColumn(s *Spec, o Opts, axis string, v float64, cs *SweepCase) (*column, error) {
	col, err := planColumn(s, o, axis, v, cs)
	if err != nil {
		return nil, err
	}
	if col.colBound, err = col.plan.bind(); err != nil {
		return nil, err
	}
	if col.label == "" && cs != nil && cs.Pattern != nil {
		col.label = col.pattern.Name() // pattern axes label columns by pattern
	}
	return col, nil
}

// planColumn resolves one sweep point's plan, label and row patches.
func planColumn(s *Spec, o Opts, axis string, v float64, cs *SweepCase) (*column, error) {
	w, ts := s.Workload, s.Topology
	col := &column{plan: colPlan{
		Custom:  w.Custom,
		Pattern: w.Pattern, Sizes: w.Sizes,
		MeanDeadlineMs: w.MeanDeadlineMs, ShortOnly: w.DeadlineShortOnly,
		Count:        quickInt(w.Count, w.QuickCount, o.Quick),
		CountPerHost: quickFloat(w.CountPerHost, w.QuickCountPerHost, o.Quick),
		Take:         w.TakeFraction,
		SeedsPerCell: max(1, quickInt(w.SeedsPerCell, w.QuickSeedsPerCell, o.Quick)),
		Poisson:      w.Arrival != nil,
	}}
	p := &col.plan
	if w.Arrival != nil {
		p.PoissonRate = quickFloat(w.Arrival.Rate, w.Arrival.QuickRate, o.Quick)
		p.WindowMs = quickFloat(w.Arrival.WindowMs, w.Arrival.QuickWindowMs, o.Quick)
	}
	if cs != nil {
		col.label, col.metric = cs.Label, cs.Metric
		if cs.Topology != nil {
			ts = *cs.Topology
			if col.label == "" {
				col.label = ts.Name
			}
		}
		if cs.Pattern != nil {
			p.Pattern = *cs.Pattern
		}
		if cs.Sizes != nil {
			p.Sizes = *cs.Sizes
			if col.label == "" {
				col.label = p.Sizes.Name
			}
		}
	}
	loss := ts.Loss
	switch axis {
	case "":
	case "flows":
		p.Count = int(v)
	case "flows-per-host":
		p.CountPerHost = v
	case "mean-size-kb":
		p.Sizes.Params = overlay(p.Sizes.Params, map[string]float64{"mean_kb": v})
	case "mean-deadline-ms":
		p.MeanDeadlineMs = v
	case "loss-rate":
		if loss == nil {
			return nil, fmt.Errorf("loss-rate axis needs topology.loss to name the lossy host")
		}
		loss = &LossSpec{Host: loss.Host, Rate: v}
	case "load":
		p.Take = v
	case "poisson-rate":
		if !p.Poisson {
			return nil, fmt.Errorf("poisson-rate axis needs workload.arrival")
		}
		p.PoissonRate = v
	default:
		if param, ok := strings.CutPrefix(axis, "runner:"); ok {
			col.runnerPatch = map[string]float64{param: v}
			break
		}
		if param, ok := strings.CutPrefix(axis, "metric:"); ok {
			col.metricPatch = map[string]float64{param: v}
			break
		}
		return nil, fmt.Errorf("unknown sweep axis %q", axis)
	}
	if p.Take < 0 || p.Take > 1 {
		return nil, fmt.Errorf("take fraction %g out of range [0, 1]", p.Take)
	}
	// A Poisson workload draws its flow count from rate×window; the batch
	// knobs would be silent no-ops, so reject them up front.
	if p.Poisson {
		switch axis {
		case "flows", "flows-per-host", "load":
			return nil, fmt.Errorf("sweep axis %q has no effect on a Poisson workload (sweep poisson-rate instead)", axis)
		}
		if p.Take > 0 {
			return nil, fmt.Errorf("take_fraction has no effect on a Poisson workload")
		}
		if p.Count > 0 || p.CountPerHost > 0 {
			return nil, fmt.Errorf("count/count_per_host have no effect on a Poisson workload")
		}
	}

	b, tp, err := topo.ResolveBuilder(ts.Name, ts.Params)
	if err != nil {
		return nil, err
	}
	p.Topo, p.TopoParams = ts.Name, tp
	hosts := b.Hosts(tp)
	if loss != nil {
		p.HasLoss, p.LossRate = true, loss.Rate
		p.LossHost = fault.HostIndex(loss.Host, hosts)
		if p.LossHost < 0 || p.LossHost >= hosts {
			return nil, fmt.Errorf("loss host %d out of range (topology has %d hosts)", loss.Host, hosts)
		}
	}

	p.Hosts = hosts
	if w.Hosts > 0 {
		if w.Hosts > hosts {
			return nil, fmt.Errorf("workload.hosts %d exceeds the topology's %d hosts", w.Hosts, hosts)
		}
		p.Hosts = w.Hosts
	}
	if w.Custom == "" && p.Hosts < 2 {
		return nil, fmt.Errorf("patterns need at least 2 hosts, topology provides %d", p.Hosts)
	}
	if w.Custom != "" {
		g, cp, err := flowGens.Resolve(w.Custom, w.Params)
		if err != nil {
			return nil, err
		}
		if p.Hosts < g.MinHosts {
			return nil, fmt.Errorf("flow generator %q needs at least %d hosts, topology provides %d", w.Custom, g.MinHosts, p.Hosts)
		}
		p.CustomParams = cp
	}

	// Faults: resolve the spec's schedule against this column's topology
	// size so a bad target fails at compile time, not mid-sweep.
	if len(s.Faults) > 0 {
		if p.Faults, err = compileFaults(s.Faults, hosts, b.Switches(tp)); err != nil {
			return nil, err
		}
	}

	p.Hi = quickInt(s.Eval.Hi, s.Eval.QuickHi, o.Quick)
	if s.Eval.HiPerHost > 0 {
		p.Hi = int(s.Eval.HiPerHost * float64(hosts))
	}
	return col, nil
}

// bind makes the column's closures from its plan. Names planColumn
// resolved are looked up again; the pattern and the size distribution are
// planned as the spec wrote them and resolved here.
func (p colPlan) bind() (colBound, error) {
	var b colBound
	meanDl, err := msTime("mean_deadline_ms", p.MeanDeadlineMs)
	window, werr := msTime("window_ms", p.WindowMs)
	if err := cmp.Or(err, werr); err != nil {
		return b, err
	}
	tb, _ := topo.LookupBuilder(p.Topo)
	b.build = func(seed int64) *topo.Topology {
		t := tb.Build(p.TopoParams, seed)
		if p.HasLoss {
			l := t.Hosts[p.LossHost].Access
			l.LossRate = p.LossRate
			l.Peer.LossRate = p.LossRate
		}
		return t
	}
	if len(p.Faults) > 0 {
		b.faults = &fault.Schedule{Events: p.Faults}
	}
	if p.Custom != "" {
		g, _ := flowGens.Lookup(p.Custom)
		b.gen = func(seed int64, _ int, _ float64) []workload.Flow { return g.Gen(p.CustomParams, p.Hosts, seed) }
		return b, nil
	}
	var rackOf func(int) int
	if tb.RackOf != nil {
		rackOf = tb.RackOf(p.TopoParams)
	}
	pat, err := workload.MakePattern(p.Pattern.Name, p.Pattern.Params)
	if err != nil {
		return b, err
	}
	dist, err := workload.MakeSizeDist(p.Sizes.Name, p.Sizes.Params)
	if err != nil {
		return b, err
	}
	b.pattern = pat
	b.gen = func(seed int64, n int, rate float64) []workload.Flow {
		rng := genSources.Get().(*rand.Rand)
		defer genSources.Put(rng)
		rng.Seed(seed)
		g := &workload.Gen{Rng: rng, Sizes: dist, MeanDeadline: meanDl}
		if p.ShortOnly {
			g.DeadlineIf = func(size int64) bool { return size < workload.ShortFlowCutoff }
		}
		if p.Poisson {
			r := p.PoissonRate
			if rate > 0 {
				r = rate
			}
			return g.Poisson(r, window, pat, p.Hosts, rackOf)
		}
		if n <= 0 {
			n = p.Count
			if p.CountPerHost > 0 {
				n = int(p.CountPerHost * float64(p.Hosts))
			}
		}
		fl := g.Batch(n, pat, p.Hosts, rackOf, 0)
		if p.Take > 0 {
			fl = fl[:int(p.Take*float64(len(fl)))]
		}
		return fl
	}
	return b, nil
}

// genSources recycles the flow generators' random sources across cells and
// probes: Seed restarts a source on the very stream rand.NewSource gives
// for that seed, so a recycled one draws what a fresh one would, without
// allocating 4.9 KB per draw.
var genSources = sync.Pool{New: func() any { return rand.New(rand.NewSource(0)) }}

// maxMs bounds a spec time: about 32 years, past any horizon, and small
// enough that two summed (a crash and its restart) still fit sim.Time.
const maxMs = 1e12

// msTime converts the spec time name, v ms, to simulator time, refusing
// NaN, a negative time and one past maxMs. A metric's Fn calls it on the
// window bounds its Check holds to [0, maxMs].
func msTime(name string, v float64) (sim.Time, error) {
	if err := params.In(name, v, 0, maxMs); err != nil {
		return 0, err
	}
	return sim.Time(v * float64(sim.Millisecond)), nil
}

// faultReads lists the FaultSpec fields each fault kind reads, by JSON
// name.
var faultReads = map[string][]string{
	"link-down":    {"host", "down_ms", "up_ms"},
	"switch-crash": {"switch", "at_ms", "restart_ms"},
	"gilbert-loss": {"host", "p_gb", "p_bg", "loss_good", "loss_bad"},
}

// compileFaults resolves a spec's faults block into validated events
// against a topology of the given size. A field the fault's kind does not
// read must be zero: a value there would change nothing.
func compileFaults(specs []FaultSpec, hosts, switches int) ([]fault.Event, error) {
	sch := fault.Schedule{Events: make([]fault.Event, 0, len(specs))}
	for i, fs := range specs {
		reads, ok := faultReads[fs.Kind]
		if !ok {
			return nil, fmt.Errorf("fault %d: unknown kind %q (available: link-down, switch-crash, gilbert-loss)", i, fs.Kind)
		}
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"host", fs.Host != 0}, {"switch", fs.Switch != 0},
			{"down_ms", fs.DownMs != 0}, {"up_ms", fs.UpMs != 0},
			{"at_ms", fs.AtMs != 0}, {"restart_ms", fs.RestartMs != 0},
			{"p_gb", fs.PGB != 0}, {"p_bg", fs.PBG != 0},
			{"loss_good", fs.LossGood != 0}, {"loss_bad", fs.LossBad != 0},
		} {
			if f.set && !slices.Contains(reads, f.name) {
				return nil, fmt.Errorf("fault %d (%s): %s is not read by this kind (it reads %s)", i, fs.Kind, f.name, strings.Join(reads, ", "))
			}
		}
		down, err1 := msTime("down_ms", fs.DownMs)
		up, err2 := msTime("up_ms", fs.UpMs)
		at, err3 := msTime("at_ms", fs.AtMs)
		restart, err4 := msTime("restart_ms", fs.RestartMs)
		if err := cmp.Or(err1, err2, err3, err4); err != nil {
			return nil, fmt.Errorf("fault %d (%s): %w", i, fs.Kind, err)
		}
		var ev fault.Event
		switch fs.Kind {
		case "link-down":
			ev = fault.Event{Kind: fault.LinkDown, Host: fs.Host, Down: down, Up: up}
		case "switch-crash":
			ev = fault.Event{Kind: fault.SwitchCrash, Switch: fs.Switch, At: at, Restart: restart}
		case "gilbert-loss":
			ev = fault.Event{Kind: fault.GilbertLoss, Host: fs.Host,
				PGB: fs.PGB, PBG: fs.PBG, LossGood: fs.LossGood, LossBad: fs.LossBad}
		}
		sch.Events = append(sch.Events, ev)
	}
	if err := sch.Validate(hosts, switches); err != nil {
		return nil, err
	}
	return sch.Events, nil
}

// compileRow plans and binds one protocol row against every column; a
// fixed row binds once, against the axis-free base. search reports
// whether the cells are read off a search's probes.
func compileRow(s *Spec, ps ProtoSpec, cols []column, base *column, search bool) (*row, error) {
	r := &row{label: cmp.Or(ps.Label, ps.Runner), fixed: ps.Fixed, cols: ps.Cols}
	if ps.Runner == "" {
		return nil, fmt.Errorf("row %q names no runner", r.label)
	}
	if s.HorizonMs <= 0 {
		return nil, fmt.Errorf("row %q needs horizon_ms > 0", r.label)
	}
	p := rowPlan{Runner: ps.Runner, Ref: ps.Ref}
	if ps.Qdisc != nil {
		var err error
		if _, p.QdiscParams, err = netsim.MakeQdisc(ps.Qdisc.Name, ps.Qdisc.Params); err != nil {
			return nil, fmt.Errorf("row %q: %w", r.label, err)
		}
		p.Qdisc = ps.Qdisc.Name
	}
	var ref RunnerEntry
	if ps.Ref != "" {
		var err error
		if ref, p.RefParams, err = runners.Resolve(ps.Ref, nil); err != nil {
			return nil, fmt.Errorf("row %q: ref: %w", r.label, err)
		}
	}
	n := len(cols)
	if ps.Fixed {
		n = 1
	}
	r.bound = make([]binding, 0, n)
	for c := range n {
		col := &cols[c]
		if ps.Fixed {
			col = base
		}
		ms := cmp.Or(ps.Metric, col.metric, &s.Metric)
		m, mp, err := metrics.Resolve(ms.Name, overlay(ms.Params, col.metricPatch))
		if err != nil {
			return nil, err
		}
		e, rp, err := runners.Resolve(ps.Runner, overlay(ps.Params, col.runnerPatch))
		if err != nil {
			return nil, fmt.Errorf("row %q: %w", r.label, err)
		}
		if e.Level != "packet" && ps.Qdisc != nil {
			return nil, fmt.Errorf("row %q: qdisc %q needs a packet-level runner, %q is %s-level",
				r.label, ps.Qdisc.Name, ps.Runner, e.Level)
		}
		for _, run := range []RunnerEntry{e, ref} {
			if block := unmodelled(s, run.Name, col.plan.HasLoss); run.Level == "flow" && block != "" {
				return nil, fmt.Errorf("row %q: flow-level runner %q does not model %s; the table would equal the one without it",
					r.label, run.Name, block)
			}
		}
		switch {
		case search && (m.Link != nil || m.Pair != nil):
			return nil, fmt.Errorf("row %q: metric %q reads one whole run, and a search's probes are cut short", r.label, ms.Name)
		case m.Link != nil && e.Level != "packet":
			return nil, fmt.Errorf("row %q: link metric %q needs a packet-level runner, %q is %s-level", r.label, ms.Name, ps.Runner, e.Level)
		case m.Pair != nil && ps.Ref == "":
			return nil, fmt.Errorf("row %q: pair metric %q needs a ref runner", r.label, ms.Name)
		case m.Pair == nil && ps.Ref != "":
			return nil, fmt.Errorf("row %q: ref %q is read by no metric: %q is not a pair metric", r.label, ps.Ref, ms.Name)
		}
		p.Params, p.Level, p.Metric, p.MetricParams = rp, e.Level, ms.Name, mp
		b := p.bind()
		if m.Link != nil {
			tb, _ := topo.LookupBuilder(col.plan.Topo)
			hosts := tb.Hosts(col.plan.TopoParams)
			if b.host = fault.HostIndex(int(mp["host"]), hosts); b.host < 0 || b.host >= hosts {
				return nil, fmt.Errorf("row %q: link metric %q: host %v out of range (topology has %d hosts)", r.label, ms.Name, mp["host"], hosts)
			}
		}
		r.bound = append(r.bound, b)
	}
	return r, nil
}

// unmodelled names the spec block a flow-level runner would run without
// reading, or returns "": flowsim models no packet loss, so it reads
// neither link loss nor gilbert-loss, and flow:fluid builds no topology for
// any fault to act on. lossy reports whether the row's columns carry link
// loss.
func unmodelled(s *Spec, runner string, lossy bool) string {
	if lossy {
		if s.Sweep != nil && s.Sweep.Axis == "loss-rate" {
			return "the loss-rate axis"
		}
		return "topology.loss"
	}
	for i, f := range s.Faults {
		if f.Kind == "gilbert-loss" || runner == "flow:fluid" {
			return fmt.Sprintf("faults[%d] (%s)", i, f.Kind)
		}
	}
	return ""
}

// bind looks up the entries a row plan names; compileRow resolved every
// one of them, so none can be missing.
func (p rowPlan) bind() binding {
	b := binding{plan: p}
	b.runner, _ = runners.Lookup(p.Runner)
	b.metric, _ = metrics.Lookup(p.Metric)
	if p.Qdisc != "" {
		b.qdisc, _, _ = netsim.MakeQdisc(p.Qdisc, p.QdiscParams) // resolved parameters resolve to themselves
	}
	if p.Ref != "" {
		b.ref = &binding{plan: rowPlan{Runner: p.Ref, Params: p.RefParams}}
		b.ref.runner, _ = runners.Lookup(p.Ref)
	}
	return b
}

// cellShare is what one run-mode grid cell shares with others
// (engine.claim sets it): it reads sim, its row's run, and with a Ref ref,
// the Ref's (−1 without); probe is a link metric's index among sim's
// probes.
type cellShare struct{ sim, ref, probe int }

// simGroup is one simulation of a run-mode grid: a runner with its
// parameters on one column plan, all a simulation reads. Every cell that
// reads it at one seed shares one run of it (engine.read), which attaches
// every reader's link metric (probes, in grid order). row and
// colLabel tag its telemetry: its first reader's row label (the Ref's
// name for a Ref) and column label, "*" when readers span columns.
type simGroup struct {
	b             *binding // the run's runner, parameters and qdisc
	col           *column
	probes        []*binding
	row, colLabel string
}

// simOf returns the index of b's run on col among the engine's sims —
// the same run (rowPlan.sameRun) on an equal column plan — adding it for
// a reader in column ci of the row labelled row.
func (e *engine) simOf(b *binding, col *column, row string, ci int) int {
	for g := range e.sims {
		if s := &e.sims[g]; s.b.plan.sameRun(&b.plan) && (s.col == col || reflect.DeepEqual(&s.col.plan, &col.plan)) {
			if s.colLabel != e.cols[ci].label {
				s.colLabel = "*"
			}
			return g
		}
	}
	e.sims = append(e.sims, simGroup{b: b, col: col, row: row, colLabel: e.cols[ci].label})
	return len(e.sims) - 1
}
