// The generic scenario engine: Run compiles a Spec against the
// registries into a protocol × sweep-point cell grid and executes it on
// the parallel sweep executor. Compilation resolves every name and
// parameter up front so a malformed spec fails with an error before any
// simulation starts.
//
// Compilation also derives, per cell, the content-address key of the
// resolved material that determines its value (topology, workload,
// runner, metric, eval bounds, horizon, seed, version salt): with
// Opts.Cache set, cell scalars are memoized under those keys and a rerun
// recomputes only the cells whose material changed (DESIGN.md §8).

package scenario

import (
	"encoding/json"
	"fmt"
	"strings"
	"sync"

	"pdq/internal/fault"
	"pdq/internal/netsim"
	"pdq/internal/obsv"
	"pdq/internal/params"
	"pdq/internal/sim"
	"pdq/internal/stats"
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
		e, ok := drivers[s.Driver]
		if !ok {
			return nil, fmt.Errorf("scenario %s: unknown driver %q (available: %v)", s.Name, s.Driver, DriverNames())
		}
		p, err := params.Resolve("driver", s.Driver, e.Params, quickParams(s.Params, s.QuickParams, o.Quick))
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		return e.Fn(s, p, o)
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

// colKey is the resolved per-column cache-key material: everything the
// column contributes to a cell's value, after quick-mode resolution and
// axis application. Parameter maps marshal with sorted keys, so the JSON
// form is canonical.
type colKey struct {
	Topo           string             `json:"topo"`
	TopoParams     map[string]float64 `json:"topo_params,omitempty"`
	HasLoss        bool               `json:"has_loss,omitempty"`
	LossHost       int                `json:"loss_host,omitempty"`
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
	Hosts          int                `json:"hosts"`
	SeedsPerCell   int                `json:"seeds_per_cell"`
	Poisson        bool               `json:"poisson,omitempty"`
	PoissonRate    float64            `json:"poisson_rate,omitempty"`
	WindowMs       float64            `json:"window_ms,omitempty"`
	Hi             int                `json:"hi,omitempty"`
	// Faults is the column's resolved fault schedule: a faulted cell must
	// content-address differently from its fault-free twin.
	Faults []fault.Event `json:"faults,omitempty"`
}

// rowKey is the resolved per-row (per-column, when an axis patches the
// row) cache-key material.
type rowKey struct {
	Runner       string             `json:"runner,omitempty"`
	Analytic     string             `json:"analytic,omitempty"`
	Params       map[string]float64 `json:"params,omitempty"`
	Metric       string             `json:"metric,omitempty"`
	MetricParams map[string]float64 `json:"metric_params,omitempty"`
	Level        string             `json:"level,omitempty"`
	Qdisc        string             `json:"qdisc,omitempty"`
	QdiscParams  map[string]float64 `json:"qdisc_params,omitempty"`
}

// engKey is the run-level cache-key material shared by every cell.
// Shards and Sched are folded in only at non-default values, so every
// pre-existing cache entry keyed without them stays addressable.
type engKey struct {
	Salt      string  `json:"salt"`
	Mode      string  `json:"mode,omitempty"`
	Threshold float64 `json:"threshold,omitempty"`
	Steps     int     `json:"steps,omitempty"`
	RateStep  float64 `json:"rate_step,omitempty"`
	Horizon   int64   `json:"horizon"`
	Shards    int     `json:"shards,omitempty"`
	Sched     string  `json:"sched,omitempty"`
}

// column is one compiled sweep point: topology construction, flow
// generation, and the per-column search bound.
type column struct {
	label string
	build func(seed int64) *topo.Topology
	hosts int
	// gen draws the column's flow set; n > 0 overrides the batch size
	// (max-flows search), rate > 0 overrides the Poisson rate (max-rate).
	gen          func(seed int64, n int, rate float64) []workload.Flow
	seedsPerCell int
	hi           int                // max-flows bound, resolved per column
	runnerPatch  map[string]float64 // "runner:<param>" axis value, nil otherwise
	metricPatch  map[string]float64 // "metric:<param>" axis value, nil otherwise
	faults       *fault.Schedule    // compiled fault schedule, nil when the spec has none
	key          colKey             // resolved cache-key material
}

// row is one compiled protocol row.
type row struct {
	label    string
	fixed    bool
	cols     int
	level    string // runner simulator level: "packet" or "flow"
	analytic func(flows []workload.Flow) float64
	// qdisc is the row's `qdisc:` override factory, nil when unset.
	qdisc func() netsim.Qdisc
	// runner and metric are bound per column (runner and metric params
	// can carry the sweep axis); entry c evaluates column c. Fixed rows
	// only have entry 0.
	runner []func(seed int64) RunnerFunc
	metric []func(rs []workload.Result, flows []workload.Flow) float64
	// keys holds the resolved cache-key material, parallel to runner
	// (a single entry for analytic and fixed rows).
	keys []rowKey
}

// interval binds the Interval of the row's metric at binding at to that
// binding's resolved params; nil when the metric has none.
func (r *row) interval(at int) func(workload.Tally) (lo, hi float64) {
	k := r.keys[at]
	iv := metrics[k.Metric].Interval
	if iv == nil {
		return nil
	}
	return func(t workload.Tally) (lo, hi float64) { return iv(t, k.MetricParams) }
}

type engine struct {
	spec      *Spec
	cols      []column
	baseCol   column // the spec without any axis applied; fixed rows use it
	rows      []row
	mode      string
	steps     int
	rateStep  float64
	threshold float64
	horizon   sim.Time
	trace     *trace.Trace
	cache     *trace.Cache
	keyEng    engKey
	maxEvents uint64
	watchdog  func(interrupt func()) (stop func())
	shards    int    // resolved shard count (Opts overrides the spec)
	sched     string // resolved timer backend: "" (heap) or "wheel"
	obs       *obsv.Observer
	progress  *obsv.SweepStats

	// shareSims is set when the sweep axis is metric-only: every column
	// runs the identical simulation and differs only in the metric
	// reduction, so one run per (row, replicate) is shared across the
	// whole column axis through simMemo.
	shareSims bool
	simMu     sync.Mutex
	simMemo   map[simMemoKey]*simEntry
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

func compile(s *Spec, o Opts) (*engine, error) {
	if len(s.Protocols) == 0 {
		return nil, fmt.Errorf("no protocols")
	}
	e := &engine{
		spec:      s,
		mode:      s.Eval.Mode,
		rateStep:  s.Eval.RateStep,
		threshold: s.Eval.Threshold,
		steps:     quickInt(s.Eval.Steps, s.Eval.QuickSteps, o.Quick),
		horizon:   sim.Time(quickFloat(s.HorizonMs, s.QuickHorizonMs, o.Quick) * float64(sim.Millisecond)),
		trace:     o.Trace,
		cache:     o.Cache,
		maxEvents: o.MaxEvents,
		watchdog:  o.Watchdog,
		obs:       o.Obs,
		progress:  o.Progress,
	}
	if e.trace != nil {
		// A cache hit skips the simulation that would emit the records, so
		// traced runs always compute.
		e.cache = nil
	}
	e.shards = o.Shards
	if e.shards == 0 {
		e.shards = s.Shards
	}
	if e.shards < 0 {
		return nil, fmt.Errorf("shards %d must be >= 0", e.shards)
	}
	e.sched = o.Sched
	if e.sched == "" {
		e.sched = s.Sched
	}
	switch e.sched {
	case "", "heap":
		e.sched = "" // one canonical spelling of the default backend
	case "wheel":
	default:
		return nil, fmt.Errorf("unknown sched backend %q (available: heap, wheel)", e.sched)
	}
	e.keyEng = engKey{
		Salt: cacheSalt, Mode: e.mode, Threshold: e.threshold,
		Steps: e.steps, RateStep: e.rateStep, Horizon: int64(e.horizon),
		Sched: e.sched,
	}
	if e.shards > 1 {
		e.keyEng.Shards = e.shards
	}
	switch e.mode {
	case "", "run", "max-flows", "max-rate":
	default:
		return nil, fmt.Errorf("unknown eval mode %q", e.mode)
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

	cols, err := compileSweep(s, o, base)
	if err != nil {
		return nil, err
	}
	e.cols = cols
	if e.mode == "" || e.mode == "run" {
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
	if (e.mode == "max-flows" || e.mode == "max-rate") && !(e.threshold > 0) {
		return nil, fmt.Errorf("%s needs eval.threshold > 0", e.mode)
	}
	switch e.mode {
	case "max-flows":
		for _, c := range e.cols {
			if c.hi < 1 {
				return nil, fmt.Errorf("max-flows needs eval.hi (or hi_per_host) >= 1")
			}
		}
	case "max-rate":
		if e.steps < 1 {
			return nil, fmt.Errorf("max-rate needs eval.steps >= 1")
		}
		if e.rateStep <= 0 {
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

// compileColumn resolves one sweep point: the base spec with either a
// numeric axis value or a structured case applied.
func compileColumn(s *Spec, o Opts, axis string, v float64, cs *SweepCase) (*column, error) {
	w := s.Workload
	ts := s.Topology
	patt, sizes := w.Pattern, w.Sizes
	count := quickInt(w.Count, w.QuickCount, o.Quick)
	countPerHost := quickFloat(w.CountPerHost, w.QuickCountPerHost, o.Quick)
	meanDeadlineMs := w.MeanDeadlineMs
	take := w.TakeFraction
	loss := ts.Loss
	var arrivalRate, arrivalWindowMs float64
	if w.Arrival != nil {
		arrivalRate = quickFloat(w.Arrival.Rate, w.Arrival.QuickRate, o.Quick)
		arrivalWindowMs = quickFloat(w.Arrival.WindowMs, w.Arrival.QuickWindowMs, o.Quick)
	}
	col := &column{seedsPerCell: quickInt(w.SeedsPerCell, w.QuickSeedsPerCell, o.Quick)}
	if col.seedsPerCell < 1 {
		col.seedsPerCell = 1
	}

	if cs != nil {
		col.label = cs.Label
		if cs.Topology != nil {
			ts = *cs.Topology
			loss = ts.Loss
			if col.label == "" {
				col.label = ts.Name
			}
		}
		if cs.Pattern != nil {
			patt = *cs.Pattern
		}
		if cs.Sizes != nil {
			sizes = *cs.Sizes
			if col.label == "" {
				col.label = sizes.Name
			}
		}
	}
	switch axis {
	case "":
	case "flows":
		count = int(v)
	case "flows-per-host":
		countPerHost = v
	case "mean-size-kb":
		sizes = DistSpec{Name: sizes.Name, Params: overrideParam(sizes.Params, "mean_kb", v)}
	case "mean-deadline-ms":
		meanDeadlineMs = v
	case "loss-rate":
		if loss == nil {
			return nil, fmt.Errorf("loss-rate axis needs topology.loss to name the lossy host")
		}
		loss = &LossSpec{Host: loss.Host, Rate: v}
	case "load":
		take = v
	case "poisson-rate":
		if w.Arrival == nil {
			return nil, fmt.Errorf("poisson-rate axis needs workload.arrival")
		}
		arrivalRate = v
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
	if take < 0 || take > 1 {
		return nil, fmt.Errorf("take fraction %g out of range [0, 1]", take)
	}
	// A Poisson workload draws its flow count from rate×window; the batch
	// knobs would be silent no-ops, so reject them up front.
	if w.Arrival != nil {
		switch axis {
		case "flows", "flows-per-host", "load":
			return nil, fmt.Errorf("sweep axis %q has no effect on a Poisson workload (sweep poisson-rate instead)", axis)
		}
		if take > 0 {
			return nil, fmt.Errorf("take_fraction has no effect on a Poisson workload")
		}
		if count > 0 || countPerHost > 0 {
			return nil, fmt.Errorf("count/count_per_host have no effect on a Poisson workload")
		}
	}

	// Topology.
	b, ok := topo.LookupBuilder(ts.Name)
	if !ok {
		return nil, fmt.Errorf("unknown topology %q (available: %v)", ts.Name, topo.BuilderNames())
	}
	tp, err := params.Resolve("topology", ts.Name, b.Params, ts.Params)
	if err != nil {
		return nil, err
	}
	col.hosts = b.Hosts(tp)
	var rackOf func(int) int
	if b.RackOf != nil {
		rackOf = b.RackOf(tp)
	}
	lossAt := 0
	if loss != nil {
		lossAt = loss.Host
		if lossAt < 0 {
			lossAt += col.hosts
		}
		if lossAt < 0 || lossAt >= col.hosts {
			return nil, fmt.Errorf("loss host %d out of range (topology has %d hosts)", loss.Host, col.hosts)
		}
	}
	lossRate := 0.0
	if loss != nil {
		lossRate = loss.Rate
	}
	hasLoss := loss != nil
	col.build = func(seed int64) *topo.Topology {
		t := b.Build(tp, seed)
		if hasLoss {
			l := t.Hosts[lossAt].Access
			l.LossRate = lossRate
			l.Peer.LossRate = lossRate
		}
		return t
	}

	// Workload.
	genHosts := col.hosts
	if w.Hosts > 0 {
		if w.Hosts > col.hosts {
			return nil, fmt.Errorf("workload.hosts %d exceeds the topology's %d hosts", w.Hosts, col.hosts)
		}
		genHosts = w.Hosts
	}
	if w.Custom == "" && genHosts < 2 {
		return nil, fmt.Errorf("patterns need at least 2 hosts, topology provides %d", genHosts)
	}
	var customParams map[string]float64
	if w.Custom != "" {
		gen, cp, minHosts, err := bindFlowGen(w.Custom, w.Params)
		if err != nil {
			return nil, err
		}
		customParams = cp
		if genHosts < minHosts {
			return nil, fmt.Errorf("flow generator %q needs at least %d hosts, topology provides %d", w.Custom, minHosts, genHosts)
		}
		col.gen = func(seed int64, _ int, _ float64) []workload.Flow { return gen(genHosts, seed) }
	} else {
		pat, err := workload.MakePattern(patt.Name, patt.Params)
		if err != nil {
			return nil, err
		}
		if col.label == "" && cs != nil && cs.Pattern != nil {
			col.label = pat.Name() // pattern axes label columns by pattern
		}
		dist, err := workload.MakeSizeDist(sizes.Name, sizes.Params)
		if err != nil {
			return nil, err
		}
		meanDl := sim.Time(meanDeadlineMs * float64(sim.Millisecond))
		window := sim.Time(arrivalWindowMs * float64(sim.Millisecond))
		poisson := w.Arrival != nil
		shortOnly := w.DeadlineShortOnly
		col.gen = func(seed int64, n int, rate float64) []workload.Flow {
			g := workload.NewGen(seed, dist, meanDl)
			if shortOnly {
				g.DeadlineIf = func(size int64) bool { return size < workload.ShortFlowCutoff }
			}
			if poisson {
				r := arrivalRate
				if rate > 0 {
					r = rate
				}
				return g.Poisson(r, window, pat, genHosts, rackOf)
			}
			if n <= 0 {
				n = count
				if countPerHost > 0 {
					n = int(countPerHost * float64(genHosts))
				}
			}
			fl := g.Batch(n, pat, genHosts, rackOf, 0)
			if take > 0 {
				fl = fl[:int(take*float64(len(fl)))]
			}
			return fl
		}
	}

	// Faults: resolve the spec's schedule against this column's topology
	// size so a bad target fails at compile time, not mid-sweep.
	if len(s.Faults) > 0 {
		sch, err := compileFaults(s.Faults, col.hosts, func() int {
			// Only a switch-crash fault needs the switch count, and the
			// builder registry exposes no accessor: build the topology once.
			return len(b.Build(tp, o.BaseSeed()).Switches)
		})
		if err != nil {
			return nil, err
		}
		col.faults = sch
	}

	col.hi = quickInt(s.Eval.Hi, s.Eval.QuickHi, o.Quick)
	if s.Eval.HiPerHost > 0 {
		col.hi = int(s.Eval.HiPerHost * float64(col.hosts))
	}
	col.key = colKey{
		Topo: ts.Name, TopoParams: tp,
		HasLoss: hasLoss, LossHost: lossAt, LossRate: lossRate,
		Custom: w.Custom, CustomParams: customParams,
		Pattern: patt, Sizes: sizes,
		MeanDeadlineMs: meanDeadlineMs, ShortOnly: w.DeadlineShortOnly,
		Count: count, CountPerHost: countPerHost, Take: take,
		Hosts: genHosts, SeedsPerCell: col.seedsPerCell,
		Poisson: w.Arrival != nil, PoissonRate: arrivalRate, WindowMs: arrivalWindowMs,
		Hi: col.hi,
	}
	if col.faults != nil {
		col.key.Faults = col.faults.Events
	}
	return col, nil
}

// msTime converts a spec-level millisecond value to simulator time.
func msTime(v float64) sim.Time { return sim.Time(v * float64(sim.Millisecond)) }

// compileFaults resolves a spec's faults block into a validated schedule.
// switches is evaluated lazily: only a switch-crash fault needs the
// count, and obtaining it costs one topology build.
func compileFaults(specs []FaultSpec, hosts int, switches func() int) (*fault.Schedule, error) {
	sch := &fault.Schedule{Events: make([]fault.Event, 0, len(specs))}
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
	return sch, nil
}

// overrideParam copies params with one key replaced.
func overrideParam(params map[string]float64, key string, v float64) map[string]float64 {
	p := make(map[string]float64, len(params)+1)
	for k, pv := range params {
		p[k] = pv
	}
	p[key] = v
	return p
}

// compileRow resolves one protocol row against every column.
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
		fn, ap, err := bindAnalytic(ps.Analytic, ps.Params)
		if err != nil {
			return nil, err
		}
		r.analytic = fn
		r.keys = []rowKey{{Analytic: ps.Analytic, Params: ap}}
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
	var qdiscName string
	var qdiscParams map[string]float64
	if ps.Qdisc != nil {
		f, qp, err := netsim.MakeQdisc(ps.Qdisc.Name, ps.Qdisc.Params)
		if err != nil {
			return nil, fmt.Errorf("row %q: %w", r.label, err)
		}
		r.qdisc = f
		qdiscName, qdiscParams = ps.Qdisc.Name, qp
	}
	n := len(cols)
	if ps.Fixed {
		n = 1
	}
	for c := 0; c < n; c++ {
		mspec := ms
		if !ps.Fixed && cols[c].metricPatch != nil {
			mspec = MetricSpec{Name: ms.Name, Params: ms.Params}
			for k, v := range cols[c].metricPatch {
				mspec.Params = overrideParam(mspec.Params, k, v)
			}
		}
		metric, mp, err := bindMetric(mspec)
		if err != nil {
			return nil, err
		}
		params := ps.Params
		if !ps.Fixed && cols[c].runnerPatch != nil {
			params = make(map[string]float64, len(ps.Params)+1)
			for k, v := range ps.Params {
				params[k] = v
			}
			for k, v := range cols[c].runnerPatch {
				params[k] = v
			}
		}
		bound, rp, level, err := bindRunner(ps.Runner, params)
		if err != nil {
			return nil, fmt.Errorf("row %q: %w", r.label, err)
		}
		if level != "packet" && ps.Qdisc != nil {
			return nil, fmt.Errorf("row %q: qdisc %q needs a packet-level runner, %q is %s-level",
				r.label, ps.Qdisc.Name, ps.Runner, level)
		}
		r.level = level
		r.runner = append(r.runner, bound)
		r.metric = append(r.metric, metric)
		r.keys = append(r.keys, rowKey{
			Runner: ps.Runner, Params: rp,
			Metric: mspec.Name, MetricParams: mp, Level: level,
			Qdisc: qdiscName, QdiscParams: qdiscParams,
		})
	}
	return r, nil
}

// bindRunner validates params once and returns a per-seed factory, the
// resolved params (cache-key material) and the runner's simulator level.
func bindRunner(name string, given map[string]float64) (func(seed int64) RunnerFunc, map[string]float64, string, error) {
	e, ok := runners[name]
	if !ok {
		return nil, nil, "", fmt.Errorf("unknown runner %q (available: %v)", name, RunnerNames())
	}
	p, err := params.Resolve("runner", name, e.Params, given)
	if err == nil && e.Check != nil {
		err = e.Check(p)
	}
	if err != nil {
		return nil, nil, "", err
	}
	return func(seed int64) RunnerFunc { return e.Make(p, seed) }, p, e.Level, nil
}

// simulate executes one simulation for a row, tagging its telemetry
// capture with (colLabel, run) — run distinguishes replicates and search
// probes sharing one grid-cell tag. decided is the run's RunCtx.Decided:
// nil except for a search probe.
func (e *engine) simulate(r *row, at int, col *column, build func() *topo.Topology, flows []workload.Flow, seed int64, colLabel string, run int, decided func(workload.Tally) bool) []workload.Result {
	rc := RunCtx{Horizon: e.horizon, Qdisc: r.qdisc, Faults: col.faults,
		MaxEvents: e.maxEvents, Watchdog: e.watchdog,
		Shards: e.shards, Sched: e.sched, Decided: decided}
	if e.obs != nil {
		rc.Obs = e.obs.Runtime
		rc.Clock = e.obs.Clock
	}
	if e.trace != nil {
		rc.Cell = e.trace.OpenCell(trace.Cell{
			Scenario: e.spec.Name, Row: r.label, Col: colLabel, Seed: seed, Run: run,
		})
	}
	return r.runner[at](seed)(build, flows, rc)
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

// value evaluates one search probe: one (row, column) pair on one flow
// set, for a caller that reads nothing off the result but
// `value >= e.threshold`. at indexes the row's per-column runner/metric
// bindings.
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
func (e *engine) value(r *row, at int, col *column, build func() *topo.Topology, flows []workload.Flow, seed int64, colLabel string, run int) float64 {
	if r.analytic != nil {
		return r.analytic(flows)
	}
	var decided func(workload.Tally) bool
	stopped := false
	if interval := r.interval(at); interval != nil {
		decided = func(t workload.Tally) bool {
			lo, hi := interval(t)
			stopped = lo >= e.threshold || hi < e.threshold // intervals only narrow: once true, true
			return stopped
		}
	}
	rs := e.simulate(r, at, col, build, flows, seed, colLabel, run, decided)
	e.progress.Probe(stopped)
	return r.metric[at](rs, flows)
}

// cellKeyHash content-addresses one grid cell: run-level material, the
// resolved column and row material, and the replicate seed.
func (e *engine) cellKeyHash(ri, ci int, seed int64) string {
	r := &e.rows[ri]
	col := &e.cols[ci]
	if r.fixed {
		col = &e.baseCol
	}
	rk := r.keys[0]
	if len(r.keys) > 1 {
		rk = r.keys[ci]
	}
	material, err := json.Marshal(struct {
		Eng  engKey `json:"eng"`
		Col  colKey `json:"col"`
		Row  rowKey `json:"row"`
		Seed int64  `json:"seed"`
	}{e.keyEng, col.key, rk, seed})
	if err != nil {
		panic(fmt.Sprintf("scenario: marshaling cache key: %v", err))
	}
	return trace.Key(material)
}

// cell evaluates one grid cell at one base seed, memoized through the
// cell cache when one is attached.
func (e *engine) cell(ri, ci int, seed int64) float64 {
	r := &e.rows[ri]
	if r.cols > 0 && ci >= r.cols {
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
	r := &e.rows[ri]
	col, at := &e.cols[ci], ci
	if r.fixed {
		col, at = &e.baseCol, 0
	}
	colLabel := e.cols[ci].label
	build := func() *topo.Topology { return col.build(seed) }
	switch e.mode {
	case "", "run":
		if r.level == "flow" && col.seedsPerCell > 1 && !e.shareSims {
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
		for s := 0; s < col.seedsPerCell; s++ {
			s := s
			flows := col.gen(seed+int64(s), 0, 0)
			if r.analytic != nil {
				sum += r.analytic(flows)
				continue
			}
			var rs []workload.Result
			if e.shareSims {
				// Metric-only sweep: every column's simulation is
				// identical, so one run per (row, replicate) serves the
				// whole axis (traced cells carry Col "*").
				rs = e.sharedRun(simMemoKey{row: ri, rep: s, seed: seed}, func() []workload.Result {
					return e.simulate(r, at, col, build, flows, seed, "*", s, nil)
				})
			} else {
				rs = e.simulate(r, at, col, build, flows, seed, colLabel, s, nil)
			}
			sum += r.metric[at](rs, flows)
		}
		return sum / float64(col.seedsPerCell)
	case "max-flows":
		run := 0
		return float64(stats.MaxN(1, col.hi, func(n int) bool {
			run++
			return e.value(r, at, col, build, col.gen(seed, n, 0), seed, colLabel, run-1) >= e.threshold
		}))
	default: // "max-rate"
		run := 0
		n := stats.MaxN(1, e.steps, func(n int) bool {
			run++
			return e.value(r, at, col, build, col.gen(seed, 0, float64(n)*e.rateStep), seed, colLabel, run-1) >= e.threshold
		})
		return float64(n) * e.rateStep
	}
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
	switch e.spec.Normalize {
	case "base-row":
		// Every column is normalized to the first row's value in that
		// column (zero bases count as one so empty baselines do not
		// divide by zero).
		for ri, r := range e.rows {
			row := Row{Label: r.label}
			for c := 0; c < nCols; c++ {
				base := raw[c].Mean
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
	case "first-cell":
		// Everything is normalized to cell (0, 0) — e.g. PDQ without
		// packet loss in the lossy-link sweep.
		base := raw[0].Mean
		if base == 0 {
			base = 1
		}
		for ri, r := range e.rows {
			row := Row{Label: r.label}
			for c := 0; c < nCols; c++ {
				s := raw[ri*nCols+c]
				row.Vals = append(row.Vals, s.Mean/base)
				if o.trials() > 1 {
					row.Errs = append(row.Errs, s.Stderr/base)
				}
			}
			t.Rows = append(t.Rows, row)
		}
	default:
		for ri, r := range e.rows {
			t.Rows = append(t.Rows, statRow(r.label, raw[ri*nCols:(ri+1)*nCols], o))
		}
	}
	return t
}
