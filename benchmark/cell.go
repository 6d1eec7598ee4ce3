package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"pdq/internal/core"
	"pdq/internal/flowsim"
	"pdq/internal/netsim"
	"pdq/internal/obsv"
	"pdq/internal/params"
	"pdq/internal/protocol/tcp"
	"pdq/internal/scenario"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// The traced cell. For each scenario workload the harness drives one
// representative cell by hand — topo.BuildByName → workload.Gen →
// <proto>.Install → Start × flows → Sim.RunUntil → Results → metric Fn,
// the calls internal/scenario makes for that cell — with a span around
// each call. Inside the run it interposes on the public seams
// (Host.Agent, Switch.Logic/Host.Logic, flowsim.Sim.Alloc) with timing
// wrappers, so the run span's self time is what is left: the event
// engine, the links and forwarding, plus protocol timer callbacks, which
// the engine calls directly and no outside seam can see. The result must
// equal what scenario.Run computes for the same cell, bit for bit.

// cellDef picks a workload's representative cell.
type cellDef struct {
	row string // row label in the spec
	col int    // sweep column index (clamped to the -quick form's columns)
}

// span is one traced interval. Spans of one replicate share Cell.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root
	Name   string  `json:"name"`
	Cell   string  `json:"cell"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	// Calls is set on aggregated spans: per-packet calls are too many to
	// keep one span each, so their time is summed into one span placed
	// at the start of the run that made them.
	Calls int `json:"calls,omitempty"`
}

// tracer keeps spans in memory; the caller writes them out at exit.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(name string, parent int, cell string) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Cell: cell,
		Start: time.Since(t.t0).Seconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = time.Since(t.t0).Seconds() }

// aggregate adds a span of the given total duration under parent.
func (t *tracer) aggregate(name string, parent int, a *busy) {
	p := t.spans[parent]
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Cell: p.Cell,
		Start: p.Start, End: p.Start + a.d.Seconds(), Calls: a.calls})
}

// selfTimes sums, per span name, each span's duration minus its
// children's.
func (t *tracer) selfTimes() map[string]float64 {
	children := make([]float64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]float64{}
	for _, s := range t.spans {
		out[s.Name] += s.End - s.Start - children[s.ID]
	}
	return out
}

// busy accumulates the time and number of calls through one seam.
type busy struct {
	d     time.Duration
	calls int
}

type timedAgent struct {
	inner    netsim.Agent
	b        *busy
	dataPkts *int
}

func (a *timedAgent) Receive(p *netsim.Packet, in *netsim.Link) {
	if p.Kind == netsim.DATA {
		*a.dataPkts++
	}
	start := time.Now()
	a.inner.Receive(p, in)
	a.b.d += time.Since(start)
	a.b.calls++
}

type timedLogic struct {
	inner netsim.SwitchLogic
	b     *busy
}

func (l *timedLogic) Process(at netsim.Node, p *netsim.Packet, in, eg *netsim.Link) bool {
	start := time.Now()
	ok := l.inner.Process(at, p, in, eg)
	l.b.d += time.Since(start)
	l.b.calls++
	return ok
}

type timedAlloc struct {
	flowsim.Allocator
	b *busy
}

func (a *timedAlloc) Allocate(now sim.Time, fs []*flowsim.FlowState, cap func(*netsim.Link) float64) {
	start := time.Now()
	a.Allocator.Allocate(now, fs, cap)
	a.b.d += time.Since(start)
	a.b.calls++
}

// cellPlan is a cell resolved the way internal/scenario resolves it,
// for the spec features the benchmark's own specs use.
type cellPlan struct {
	id         string
	single     *scenario.Spec // the one-cell spec scenario.Run gets as reference
	runner     string
	qdisc      func() netsim.Qdisc
	topoName   string
	topoParams map[string]float64
	hosts      int
	rackOf     func(int) int
	pattern    workload.Pattern
	dist       workload.SizeDist
	meanDl     sim.Time
	count      int      // batch size; 0 for a Poisson workload
	rate       float64  // Poisson flows/s
	window     sim.Time // Poisson arrival window
	seeds      int
	horizon    sim.Time
	metric     func(rs []workload.Result, flows []workload.Flow) float64
}

func pick[T comparable](full, quick T, q bool) T {
	var zero T
	if q && quick != zero {
		return quick
	}
	return full
}

// planCell resolves def against spec. It knows the axes the benchmark's
// specs sweep — flows, flows-per-host, poisson-rate, topology cases —
// and refuses anything else rather than drive a different cell.
func planCell(spec *scenario.Spec, def *cellDef, quick bool) (*cellPlan, error) {
	var proto *scenario.ProtoSpec
	for i := range spec.Protocols {
		p := &spec.Protocols[i]
		if p.Label == def.row || (p.Label == "" && p.Runner == def.row) {
			proto = p
		}
	}
	if proto == nil || spec.Sweep == nil {
		return nil, fmt.Errorf("spec %s has no row %q or no sweep", spec.Name, def.row)
	}
	w := spec.Workload
	p := &cellPlan{
		runner:     proto.Runner,
		topoName:   spec.Topology.Name,
		topoParams: spec.Topology.Params,
		meanDl:     sim.Time(w.MeanDeadlineMs * float64(sim.Millisecond)),
		count:      pick(w.Count, w.QuickCount, quick),
		seeds:      max(1, pick(w.SeedsPerCell, w.QuickSeedsPerCell, quick)),
		horizon:    sim.Time(pick(spec.HorizonMs, spec.QuickHorizonMs, quick) * float64(sim.Millisecond)),
	}
	perHost := pick(w.CountPerHost, w.QuickCountPerHost, quick)
	if w.Arrival != nil {
		p.rate = pick(w.Arrival.Rate, w.Arrival.QuickRate, quick)
		p.window = sim.Time(pick(w.Arrival.WindowMs, w.Arrival.QuickWindowMs, quick) * float64(sim.Millisecond))
	}

	single := *spec
	sw := *spec.Sweep
	single.Protocols = []scenario.ProtoSpec{*proto}
	single.Sweep = &sw
	cases := sw.Cases
	if quick && len(sw.QuickCases) > 0 {
		cases = sw.QuickCases
	}
	col := def.col
	if len(cases) > 0 {
		col = min(col, len(cases)-1)
		cs := cases[col]
		if cs.Topology == nil || cs.Pattern != nil || cs.Sizes != nil {
			return nil, fmt.Errorf("spec %s: the cell driver handles topology cases only", spec.Name)
		}
		p.topoName, p.topoParams = cs.Topology.Name, cs.Topology.Params
		sw.Cases, sw.QuickCases = []scenario.SweepCase{cs}, nil
		p.id = fmt.Sprintf("%s/%s/%s", spec.Name, def.row, cs.Label)
	} else {
		values := sw.Values
		if quick && len(sw.QuickValues) > 0 {
			values = sw.QuickValues
		}
		col = min(col, len(values)-1)
		v := values[col]
		switch sw.Axis {
		case "flows":
			p.count = int(v)
		case "flows-per-host":
			perHost = v
		case "poisson-rate":
			p.rate = v
		default:
			return nil, fmt.Errorf("spec %s: the cell driver does not know sweep axis %q", spec.Name, sw.Axis)
		}
		sw.Values, sw.QuickValues, sw.Labels, sw.QuickLabels = []float64{v}, nil, nil, nil
		p.id = fmt.Sprintf("%s/%s/%g", spec.Name, def.row, v)
	}
	p.single = &single

	var err error
	if p.hosts, err = topo.HostsByName(p.topoName, p.topoParams); err != nil {
		return nil, err
	}
	if p.rackOf, err = topo.RackOfByName(p.topoName, p.topoParams); err != nil {
		return nil, err
	}
	if perHost > 0 {
		p.count = int(perHost * float64(p.hosts))
	}
	if p.pattern, err = workload.MakePattern(w.Pattern.Name, w.Pattern.Params); err != nil {
		return nil, err
	}
	if p.dist, err = workload.MakeSizeDist(w.Sizes.Name, w.Sizes.Params); err != nil {
		return nil, err
	}
	if proto.Qdisc != nil {
		if p.qdisc, _, err = netsim.MakeQdisc(proto.Qdisc.Name, proto.Qdisc.Params); err != nil {
			return nil, err
		}
	}
	ms := spec.Metric
	if proto.Metric != nil {
		ms = *proto.Metric
	}
	for _, e := range scenario.MetricList() {
		if e.Name != ms.Name {
			continue
		}
		mp, err := params.Resolve("metric", e.Name, e.Params, ms.Params)
		if err != nil {
			return nil, err
		}
		p.metric = func(rs []workload.Result, flows []workload.Flow) float64 { return e.Fn(rs, flows, mp) }
	}
	if p.metric == nil {
		return nil, fmt.Errorf("spec %s: unknown metric %q", spec.Name, ms.Name)
	}
	return p, nil
}

// gen draws one replicate's flow set, as scenario's column generator does.
func (p *cellPlan) gen(seed int64) []workload.Flow {
	g := workload.NewGen(seed, p.dist, p.meanDl)
	if p.rate > 0 {
		return g.Poisson(p.rate, p.window, p.pattern, p.hosts, p.rackOf)
	}
	return g.Batch(p.count, p.pattern, p.hosts, p.rackOf, 0)
}

// cellCounts are the counters read at the same boundaries as the spans.
type cellCounts struct {
	fired, scheduled, cancelled uint64
	queueHWM                    int64
	hops, firstHopBytes         uint64
	dropsQueue, dropsLoss       uint64
	dataPkts, steps             int
	retransmits, preemptions    int64
	done, terminated            int
	acked                       int64
}

// install attaches the row's protocol to t, by hand, for the runners the
// representative cells use.
func (p *cellPlan) install(t *topo.Topology) (flowSystem, error) {
	var sys flowSystem
	switch p.runner {
	case "PDQ(Full)":
		sys = core.Install(t, core.Full())
	case "TCP":
		sys = tcp.Install(t, tcp.Config{})
	default:
		return nil, fmt.Errorf("the cell driver has no hand installation for runner %q", p.runner)
	}
	if p.qdisc != nil {
		for _, l := range t.Net.Links() {
			l.SetQdisc(p.qdisc())
		}
	}
	return sys, nil
}

// drive runs the planned cell with spans and counters and returns the
// cell's value.
func (p *cellPlan) drive(tr *tracer, seed int64, c *cellCounts) (float64, error) {
	root := tr.begin("cell", -1, p.id)
	defer tr.end(root)
	sum := 0.0
	for k := 0; k < p.seeds; k++ {
		id := fmt.Sprintf("%s/seed%d", p.id, seed+int64(k))
		spanned := func(name string, fn func()) int {
			s := tr.begin(name, root, id)
			fn()
			tr.end(s)
			return s
		}
		var flows []workload.Flow
		spanned("workload_gen", func() { flows = p.gen(seed + int64(k)) })
		var t *topo.Topology
		var err error
		spanned("topo_build", func() { t, err = topo.BuildByName(p.topoName, p.topoParams, seed) })
		if err != nil {
			return 0, err
		}
		var rs []workload.Result
		if p.runner == "flow:PDQ" {
			rs = p.driveFlowLevel(tr, spanned, t, flows, seed, c)
		} else if rs, err = p.drivePacketLevel(tr, spanned, t, flows, c); err != nil {
			return 0, err
		}
		spanned("metric", func() { sum += p.metric(rs, flows) })
		for _, r := range rs {
			c.retransmits += int64(r.Retransmits)
			c.preemptions += int64(r.Preemptions)
			c.acked += r.BytesAcked
			switch {
			case r.Done():
				c.done++
			case r.Terminated:
				c.terminated++
			}
		}
	}
	return sum / float64(p.seeds), nil
}

func (p *cellPlan) drivePacketLevel(tr *tracer, spanned func(string, func()) int, t *topo.Topology,
	flows []workload.Flow, c *cellCounts) ([]workload.Result, error) {
	var sys flowSystem
	var err error
	spanned("install", func() { sys, err = p.install(t) })
	if err != nil {
		return nil, err
	}
	var agents, logic busy
	st := &obsv.EngineStats{}
	// The harness's own work gets its own span, so that it is neither
	// charged to a layer nor left as an unexplained gap in the cell.
	spanned("harness", func() {
		wrapped := map[netsim.SwitchLogic]*timedLogic{} // one wrapper per shared logic
		wrap := func(l netsim.SwitchLogic) netsim.SwitchLogic {
			if l == nil {
				return nil
			}
			if wrapped[l] == nil {
				wrapped[l] = &timedLogic{l, &logic}
			}
			return wrapped[l]
		}
		for _, h := range t.Hosts {
			h.Agent = &timedAgent{h.Agent, &agents, &c.dataPkts}
			h.Logic = wrap(h.Logic)
		}
		for _, s := range t.Switches {
			s.Logic = wrap(s.Logic)
		}
		t.Sim().SetStats(st)
	})
	spanned("start", func() {
		for _, f := range flows {
			sys.Start(f)
		}
	})
	run := spanned("run", func() { t.Sim().RunUntil(p.horizon) })
	tr.aggregate("agent", run, &agents)
	tr.aggregate("switchlogic", run, &logic)
	var rs []workload.Result
	spanned("results", func() { rs = sys.Results() })

	spanned("harness", func() {
		c.fired += st.Fired.Value()
		c.scheduled += st.Scheduled.Value()
		c.cancelled += st.Cancelled.Value()
		c.queueHWM = max(c.queueHWM, st.QueueHWM.Value())
		for _, l := range t.Net.Links() {
			c.hops += l.TxPackets()
			c.dropsQueue += l.Drops()
			c.dropsLoss += l.LossDrops()
			if _, fromHost := l.From.(*netsim.Host); fromHost {
				c.firstHopBytes += l.TxBytes()
			}
		}
	})
	return rs, nil
}

func (p *cellPlan) driveFlowLevel(tr *tracer, spanned func(string, func()) int, t *topo.Topology,
	flows []workload.Flow, seed int64, c *cellCounts) []workload.Result {
	var s *flowsim.Sim
	var alloc busy
	spanned("install", func() { s = flowsim.New(t, flowsim.NewPDQ(flowsim.CritPerfect, seed)) })
	s.Alloc = &timedAlloc{s.Alloc, &alloc}
	spanned("start", func() {
		for _, f := range flows {
			s.Start(f)
		}
	})
	run := spanned("run", func() { s.Run(p.horizon) })
	tr.aggregate("allocate", run, &alloc)
	c.steps += alloc.calls
	var rs []workload.Result
	spanned("results", func() { rs = s.Results() })
	return rs
}

// cell drives w's representative cell traced, checks it against
// scenario.Run on the one-cell spec, and reports the cell.* metrics; it
// returns the spans for the trace file.
func (k *kernels) cell(w *workloadDef) []span {
	for _, d := range cellMetrics {
		if strings.HasPrefix(d.Name, "cell.") {
			k.set(d.Name, d.Unit, 0)
		}
	}
	k.set("trace.overhead_ratio", "ratio", 0)
	if w.cell == nil {
		return nil // figure workloads have no single cell; sweep.* covers them
	}
	data, err := w.specData(k.h.root)
	if !k.ok(err == nil, "traced cell: %v", err) {
		return nil
	}
	spec, err := scenario.Load(data)
	if !k.ok(err == nil, "traced cell: %v", err) {
		return nil
	}
	plan, err := planCell(spec, w.cell, k.h.smoke)
	if !k.ok(err == nil, "traced cell: %v", err) {
		return nil
	}
	seed := w.pdqSeed(k.h.seed)

	start := time.Now()
	ref, err := scenario.Run(plan.single, scenario.Opts{Seed: seed, Parallel: 1, Quick: k.h.smoke})
	untraced := time.Since(start).Seconds()
	if !k.ok(err == nil, "untraced cell: %v", err) {
		return nil
	}

	var before, after runtime.MemStats
	var c cellCounts
	tr := &tracer{t0: time.Now()}
	runtime.GC()
	runtime.ReadMemStats(&before)
	got, err := plan.drive(tr, seed, &c)
	runtime.ReadMemStats(&after)
	if !k.ok(err == nil, "traced cell: %v", err) {
		return nil
	}
	k.ok(got == ref.Rows[0].Vals[0], "traced cell %s = %v, scenario.Run gives %v", plan.id, got, ref.Rows[0].Vals[0])

	self := tr.selfTimes()
	rootSpan := tr.spans[0]
	traced := rootSpan.End - rootSpan.Start
	runS := 0.0
	for _, s := range tr.spans {
		if s.Name == "run" {
			runS += s.End - s.Start
		}
	}
	runSelf := "cell.engine_netsim_s"
	if c.steps > 0 {
		runSelf = "cell.flowsim_step_s"
	}
	for name, metric := range map[string]string{
		"topo_build": "cell.topo_build_s", "workload_gen": "cell.workload_gen_s",
		"install": "cell.install_s", "start": "cell.start_s", "run": runSelf,
		"agent": "cell.agent_s", "switchlogic": "cell.switchlogic_s",
		"allocate": "cell.allocate_s", "results": "cell.results_s", "metric": "cell.metric_s",
	} {
		k.set(metric, "s", self[name])
	}
	k.set("cell.run_s", "s", runS)
	// The layers' self times plus the harness's own named span must
	// cover the root span: no more than 2 % of the cell may be time no
	// span explains (0.2 ms on the sub-millisecond cells of the smoke
	// pass, where span bookkeeping itself is that share).
	partition := self["harness"]
	for _, name := range cellSpans {
		partition += k.out[name].Value
	}
	k.ok(math.Abs(partition-traced) <= max(0.02*traced, 0.0002),
		"traced cell: self times sum to %.6fs, root span is %.6fs", partition, traced)

	mallocs := float64(after.Mallocs - before.Mallocs)
	count := func(name string, v float64) { k.set(name, "count", v) }
	count("cell.events_fired", float64(c.fired))
	count("cell.events_scheduled", float64(c.scheduled))
	count("cell.events_cancelled", float64(c.cancelled))
	count("cell.queue_hwm", float64(c.queueHWM))
	count("cell.pkt_hops", float64(c.hops))
	count("cell.data_pkts", float64(c.dataPkts))
	count("cell.drops_queue", float64(c.dropsQueue))
	count("cell.drops_loss", float64(c.dropsLoss))
	count("cell.retransmits", float64(c.retransmits))
	count("cell.preemptions", float64(c.preemptions))
	count("cell.flows_done", float64(c.done))
	count("cell.flows_terminated", float64(c.terminated))
	count("cell.mallocs", mallocs)
	k.set("cell.alloc_bytes", "B", float64(after.TotalAlloc-before.TotalAlloc))
	count("cell.gc_cycles", float64(after.NumGC-before.NumGC))
	count("cell.steps", float64(c.steps))
	ratio := func(name, unit string, num, den float64) {
		if den == 0 {
			k.set(name, unit, 0) // the layer did no such work in this cell
			return
		}
		k.set(name, unit, num/den)
	}
	ratio("cell.ns_per_event", "ns", runS*1e9, float64(c.fired))
	ratio("cell.events_per_hop", "ratio", float64(c.fired), float64(c.hops))
	ratio("cell.allocs_per_data_pkt", "ratio", mallocs, float64(c.dataPkts))
	ratio("cell.goodput_ratio", "ratio", float64(c.acked), float64(c.firstHopBytes))
	ratio("cell.cancel_ratio", "ratio", float64(c.cancelled), float64(c.scheduled))
	k.set("trace.overhead_ratio", "ratio", traced/untraced)
	return tr.spans
}
