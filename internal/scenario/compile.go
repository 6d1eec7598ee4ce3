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
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"pdq/internal/fault"
	"pdq/internal/netsim"
	"pdq/internal/obsv"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

// cacheSalt versions the cell cache: bump it whenever a simulator or
// metric changes semantics, so stale entries from older engines can
// never be served as current results. v2: loss coins moved from the
// network-global RNG to per-link streams (DESIGN.md §14), so lossy
// cells produce different (equally valid) samples for the same seed.
const cacheSalt = "pdqsim-cell-v2"

// The plan structs marshal into the cache key: their field order, JSON
// names and omitempty tags are its bytes, and changing any of them
// orphans every cached cell. Parameter maps marshal with sorted keys, so
// the JSON form is canonical.

// engPlan is the run-level plan shared by every cell. Shards and Sched
// hold their defaults as zero values, so every cache entry keyed before
// they existed stays addressable.
type engPlan struct {
	Salt      string   `json:"salt"`
	Mode      string   `json:"mode,omitempty"`
	Threshold float64  `json:"threshold,omitempty"`
	Steps     int      `json:"steps,omitempty"`
	RateStep  float64  `json:"rate_step,omitempty"`
	Horizon   sim.Time `json:"horizon"`
	Shards    int      `json:"shards,omitempty"` // 0 for the single engine
	Sched     string   `json:"sched,omitempty"`  // "" for the heap
}

// colPlan is one resolved sweep point: everything the column contributes
// to a cell's value, after quick-mode resolution and axis application.
type colPlan struct {
	Topo           string             `json:"topo"`
	TopoParams     map[string]float64 `json:"topo_params,omitempty"`
	HasLoss        bool               `json:"has_loss,omitempty"`
	LossHost       int                `json:"loss_host,omitempty"` // resolved, counted from host 0
	LossRate       float64            `json:"loss_rate,omitempty"`
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

// rowPlan is one protocol row resolved against one column (runner and
// metric parameters can carry the sweep axis).
type rowPlan struct {
	Runner       string             `json:"runner,omitempty"`
	Analytic     string             `json:"analytic,omitempty"`
	Params       map[string]float64 `json:"params,omitempty"` // the runner's or the analytic's
	Metric       string             `json:"metric,omitempty"`
	MetricParams map[string]float64 `json:"metric_params,omitempty"`
	Level        string             `json:"level,omitempty"` // runner simulator level: "packet" or "flow"
	Qdisc        string             `json:"qdisc,omitempty"`
	QdiscParams  map[string]float64 `json:"qdisc_params,omitempty"`
}

// cellPlan is everything that determines one grid cell's value.
type cellPlan struct {
	Eng  *engPlan `json:"eng"`
	Col  *colPlan `json:"col"`
	Row  *rowPlan `json:"row"`
	Seed int64    `json:"seed"`
}

// key content-addresses the cell.
func (p cellPlan) key() string {
	material, err := json.Marshal(p)
	if err != nil {
		panic(fmt.Sprintf("scenario: marshaling cache key: %v", err))
	}
	return trace.Key(material)
}

// column is one compiled sweep point: its plan, and the topology
// construction and flow generation bound from it.
type column struct {
	label       string
	plan        colPlan
	runnerPatch map[string]float64 // "runner:<param>" axis value, nil otherwise
	metricPatch map[string]float64 // "metric:<param>" axis value, nil otherwise
	colBound
}

// colBound is what colPlan.bind makes.
type colBound struct {
	build func(seed int64) *topo.Topology
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
	// bound holds the row resolved against each column; analytic and
	// fixed rows have a single entry (see at).
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
	plan     rowPlan
	runner   RunnerEntry
	metric   MetricEntry
	analytic AnalyticEntry
	qdisc    func() netsim.Qdisc // the row's `qdisc:` override factory, nil when unset
}

// engine is a compiled spec: the bound cell grid and how to run it.
type engine struct {
	spec     *Spec
	plan     engPlan
	cols     []column
	baseCol  column // the spec without any axis applied; fixed rows use it
	rows     []row
	env      Env
	trace    *trace.Trace
	cache    *trace.Cache
	progress *obsv.SweepStats

	// shareSims is set when the sweep axis is metric-only: every column
	// runs the identical simulation and differs only in the metric
	// reduction, so one run per (row, replicate) is shared across the
	// whole column axis through simMemo.
	shareSims bool
	simMu     sync.Mutex
	simMemo   map[simMemoKey]*simEntry

	inspect func(*topo.Topology) // every run's RunCtx.inspect; set by tests
}

// search reports whether cells are read off a binary search.
func (p *engPlan) search() bool { return p.Mode == "max-flows" || p.Mode == "max-rate" }

func compile(s *Spec, o Opts) (*engine, error) {
	if len(s.Protocols) == 0 {
		return nil, fmt.Errorf("no protocols")
	}
	e := &engine{
		spec: s,
		plan: engPlan{
			Salt: cacheSalt, Mode: s.Eval.Mode, Threshold: s.Eval.Threshold,
			Steps:    quickInt(s.Eval.Steps, s.Eval.QuickSteps, o.Quick),
			RateStep: s.Eval.RateStep,
			Horizon:  msTime(quickFloat(s.HorizonMs, s.QuickHorizonMs, o.Quick)),
			Shards:   o.Shards, Sched: o.Sched,
		},
		env:      o.env(),
		trace:    o.Trace,
		cache:    o.Cache,
		progress: o.Progress,
	}
	if e.trace != nil {
		// A cache hit skips the simulation that would emit the records, so
		// traced runs always compute.
		e.cache = nil
	}
	p := &e.plan
	if p.Shards == 0 {
		p.Shards = s.Shards
	}
	if p.Shards < 0 {
		return nil, fmt.Errorf("shards %d must be >= 0", p.Shards)
	}
	if p.Shards == 1 {
		p.Shards = 0 // one canonical spelling of the single engine
	}
	if p.Sched == "" {
		p.Sched = s.Sched
	}
	switch p.Sched {
	case "", "heap":
		p.Sched = "" // and one of the default backend
	case "wheel":
	default:
		return nil, fmt.Errorf("unknown sched backend %q (available: heap, wheel)", p.Sched)
	}
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
	if !p.search() {
		share := len(e.cols) > 1
		for _, c := range e.cols {
			if c.metricPatch == nil {
				share = false
				break
			}
		}
		if share {
			e.shareSims = true
			e.simMemo = map[simMemoKey]*simEntry{}
		}
	}

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
		r, err := compileRow(s, ps, e.cols)
		if err != nil {
			return nil, err
		}
		e.rows = append(e.rows, *r)
	}
	return e, nil
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
		col.label = cs.Label
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
		p.Sizes.Params = overlay(p.Sizes.Params, map[string]float64{"mean_kb": v}, true)
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
		p.Faults, err = compileFaults(s.Faults, hosts, func() int {
			// Only a switch-crash fault needs the switch count, and the
			// builder registry exposes no accessor: build the topology once.
			return len(b.Build(tp, o.BaseSeed()).Switches)
		})
		if err != nil {
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
	meanDl, window := msTime(p.MeanDeadlineMs), msTime(p.WindowMs)
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

// msTime converts a spec-level millisecond value to simulator time.
func msTime(v float64) sim.Time { return sim.Time(v * float64(sim.Millisecond)) }

// compileFaults resolves a spec's faults block into validated events.
// switches is evaluated lazily: only a switch-crash fault needs the
// count, and obtaining it costs one topology build.
func compileFaults(specs []FaultSpec, hosts int, switches func() int) ([]fault.Event, error) {
	sch := fault.Schedule{Events: make([]fault.Event, 0, len(specs))}
	needSwitches := false
	for i, fs := range specs {
		var ev fault.Event
		switch fs.Kind {
		case "link-down":
			ev = fault.Event{Kind: fault.LinkDown, Host: fs.Host,
				Down: msTime(fs.DownMs), Up: msTime(fs.UpMs)}
		case "switch-crash":
			needSwitches = true
			ev = fault.Event{Kind: fault.SwitchCrash, Switch: fs.Switch,
				At: msTime(fs.AtMs), Restart: msTime(fs.RestartMs)}
		case "gilbert-loss":
			ev = fault.Event{Kind: fault.GilbertLoss, Host: fs.Host,
				PGB: fs.PGB, PBG: fs.PBG, LossGood: fs.LossGood, LossBad: fs.LossBad}
		default:
			return nil, fmt.Errorf("fault %d: unknown kind %q (available: link-down, switch-crash, gilbert-loss)", i, fs.Kind)
		}
		sch.Events = append(sch.Events, ev)
	}
	nSwitches := 0
	if needSwitches {
		nSwitches = switches()
	}
	if err := sch.Validate(hosts, nSwitches); err != nil {
		return nil, err
	}
	return sch.Events, nil
}

// compileRow plans and binds one protocol row against every column.
func compileRow(s *Spec, ps ProtoSpec, cols []column) (*row, error) {
	r := &row{label: ps.Label, fixed: ps.Fixed, cols: ps.Cols}
	if ps.Analytic != "" {
		if ps.Runner != "" {
			return nil, fmt.Errorf("row %q has both runner and analytic", r.label)
		}
		if ps.Qdisc != nil {
			return nil, fmt.Errorf("row %q: analytic baselines run no simulation, qdisc has no effect", r.label)
		}
		if r.label == "" {
			r.label = ps.Analytic
		}
		_, ap, err := analytics.Resolve(ps.Analytic, ps.Params)
		if err != nil {
			return nil, err
		}
		r.bound = []binding{rowPlan{Analytic: ps.Analytic, Params: ap}.bind()}
		return r, nil
	}
	if ps.Runner == "" {
		return nil, fmt.Errorf("row %q names neither runner nor analytic", r.label)
	}
	if r.label == "" {
		r.label = ps.Runner
	}
	ms := s.Metric
	if ps.Metric != nil {
		ms = *ps.Metric
	}
	if s.HorizonMs <= 0 {
		return nil, fmt.Errorf("row %q needs horizon_ms > 0", r.label)
	}
	p := rowPlan{Runner: ps.Runner, Metric: ms.Name}
	if ps.Qdisc != nil {
		var err error
		if _, p.QdiscParams, err = netsim.MakeQdisc(ps.Qdisc.Name, ps.Qdisc.Params); err != nil {
			return nil, fmt.Errorf("row %q: %w", r.label, err)
		}
		p.Qdisc = ps.Qdisc.Name
	}
	n := len(cols)
	if ps.Fixed {
		n = 1
	}
	for c := 0; c < n; c++ {
		var err error
		if _, p.MetricParams, err = metrics.Resolve(ms.Name, overlay(ms.Params, cols[c].metricPatch, !ps.Fixed)); err != nil {
			return nil, err
		}
		e, rp, err := runners.Resolve(ps.Runner, overlay(ps.Params, cols[c].runnerPatch, !ps.Fixed))
		if err != nil {
			return nil, fmt.Errorf("row %q: %w", r.label, err)
		}
		if e.Level != "packet" && ps.Qdisc != nil {
			return nil, fmt.Errorf("row %q: qdisc %q needs a packet-level runner, %q is %s-level",
				r.label, ps.Qdisc.Name, ps.Runner, e.Level)
		}
		p.Params, p.Level = rp, e.Level
		r.bound = append(r.bound, p.bind())
	}
	return r, nil
}

// bind looks up the entries a row plan names; compileRow resolved every
// one of them, so none can be missing.
func (p rowPlan) bind() binding {
	b := binding{plan: p}
	b.runner, _ = runners.Lookup(p.Runner)
	b.metric, _ = metrics.Lookup(p.Metric)
	b.analytic, _ = analytics.Lookup(p.Analytic)
	if p.Qdisc != "" {
		b.qdisc, _, _ = netsim.MakeQdisc(p.Qdisc, p.QdiscParams) // resolved parameters resolve to themselves
	}
	return b
}
