package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pdq/internal/core"
	"pdq/internal/flowsim"
	"pdq/internal/fluid"
	"pdq/internal/netsim"
	"pdq/internal/obsv"
	"pdq/internal/protocol/d3"
	"pdq/internal/protocol/dctcp"
	"pdq/internal/protocol/pfabric"
	"pdq/internal/protocol/rcp"
	"pdq/internal/protocol/tcp"
	"pdq/internal/scenario"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

// The kernel suite times calls into each module's public functions from
// outside the module. Every kernel builds its fixture from public
// constructors, warms up, then reports the cheapest of five batches —
// the minimum is the estimate least disturbed by a shared host — and
// exact counts (events, allocations) as they are.

// kernels carries the suite's knobs and collects its metrics.
type kernels struct {
	h *harness
	// batch is how long one timed batch lasts: 1/400 of the run's
	// seconds, so a contract run (10 s) spends 0.125 s per kernel and the
	// default suite (24 s) the 0.3 s the layer budget was designed for.
	batch time.Duration
	out   map[string]summary
	checks
}

const kernelBatches = 5

// perUnit times run(n), which performs n steps and returns how many
// units of work they did, and returns the cheapest ns per unit.
func (k *kernels) perUnit(run func(n int) float64) float64 {
	n := 64
	for {
		start := time.Now()
		run(n)
		if time.Since(start) >= k.batch/2 || n >= 1<<28 {
			break
		}
		n *= 2
	}
	best := math.Inf(1)
	for b := 0; b < kernelBatches; b++ {
		start := time.Now()
		units := run(n)
		if d := float64(time.Since(start).Nanoseconds()) / units; d < best {
			best = d
		}
	}
	return best
}

// perOp is perUnit for an op that is one unit of work.
func (k *kernels) perOp(op func()) float64 {
	return k.perUnit(func(n int) float64 {
		for i := 0; i < n; i++ {
			op()
		}
		return float64(n)
	})
}

// once times fn kernelBatches times and returns the cheapest seconds.
func once(fn func()) float64 {
	best := math.Inf(1)
	for b := 0; b < kernelBatches; b++ {
		start := time.Now()
		fn()
		best = math.Min(best, time.Since(start).Seconds())
	}
	return best
}

// mallocs returns the heap objects fn allocates.
func mallocs(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// set records a metric; a value that is not a finite number is a failed
// check and is stored as 0 so the result stays valid JSON.
func (k *kernels) set(name, unit string, v float64) {
	if !k.ok(!math.IsNaN(v) && !math.IsInf(v, 0), "%s measured %v", name, v) {
		v = 0
	}
	k.out[name] = scalar(unit, v)
}

// common runs every kernel that needs no whole-workload run.
func (k *kernels) common() {
	k.cmd()
	k.scenario()
	k.topo()
	k.workload()
	k.sim()
	k.netsim()
	k.core()
	k.protocols()
	k.flowsim()
	k.fluidAndTrace()
}

func (k *kernels) cmd() {
	// A second build into a scratch file: the compile cache is warm, so
	// this is the staleness walk plus the link.
	target := filepath.Join(k.h.tmp, "pdqsim-build-kernel")
	start := time.Now()
	err := buildPdqsim(k.h.root, target)
	k.set("cmd.build_s", "s", time.Since(start).Seconds())
	k.ok(err == nil, "cmd.build_s: %v", err)
	os.Remove(target)
	k.set("cmd.start_ms", "ms", 1e3*once(func() {
		r := k.h.child(2, "-list")
		k.ok(r.err == nil, "pdqsim -list: %v", r.err)
	}))
}

func (k *kernels) scenario() {
	data, err := findWorkload("pdq-tree").specData(k.h.root)
	if !k.ok(err == nil, "scenario kernels: %v", err) {
		return
	}
	var spec *scenario.Spec
	k.set("scenario.load_us", "us", k.perOp(func() { spec, err = scenario.Load(data) })/1e3)
	if !k.ok(err == nil, "scenario.Load: %v", err) {
		return
	}
	// Run on a fully warm cache is compile + key derivation + reads.
	cache, err := trace.NewCache(filepath.Join(k.h.tmp, "kernel-cache"))
	if !k.ok(err == nil, "scenario.warm_run_ms: %v", err) {
		return
	}
	o := scenario.Opts{Quick: true, Parallel: 1, Cache: cache}
	cold := scenario.MustRun(spec, o)
	var warm *scenario.Table
	k.set("scenario.warm_run_ms", "ms", k.perOp(func() { warm = scenario.MustRun(spec, o) })/1e6)
	k.ok(warm.String() == cold.String(), "scenario.warm_run_ms: warm table differs from cold")

	g := workload.NewGen(1, workload.UniformMean(100<<10), workload.MeanDeadlineDflt)
	flows := g.Batch(128, workload.Aggregation{}, 12, nil, 0)
	rs := make([]workload.Result, len(flows))
	for i, f := range flows {
		rs[i] = workload.Result{Flow: f, Finish: f.Start + sim.Time(i+1)*sim.Millisecond, BytesAcked: f.Size}
	}
	ms := scenario.MetricList()
	k.set("scenario.metric.eval_ns", "ns", k.perUnit(func(n int) float64 {
		for i := 0; i < n; i++ {
			for _, m := range ms {
				sink += m.Fn(rs, flows, m.Params)
			}
		}
		return float64(n * len(ms) * len(rs))
	}))
}

// sink keeps results alive so the compiler cannot drop the timed calls.
var sink float64

func (k *kernels) topo() {
	fat := map[string]float64{"k": 16}
	bcube := map[string]float64{"n": 4, "k": 3}
	build := func(name string, p map[string]float64) *topo.Topology {
		t, err := topo.BuildByName(name, p, 1)
		if err != nil {
			panic(err) // registered name, valid parameters
		}
		return t
	}
	k.set("topo.build_ms.fattree16", "ms", 1e3*once(func() { build("fat-tree", fat) }))
	k.set("topo.build_ms.bcube", "ms", 1e3*once(func() { build("bcube", bcube) }))

	// Routing caches one BFS per destination, so paths are timed on a
	// fresh topology over a whole permutation, as a cell pays for them.
	perPair := func(name string, p map[string]float64, route func(t *topo.Topology, a, b *netsim.Host)) float64 {
		best := math.Inf(1)
		for b := 0; b < 3; b++ {
			t := build(name, p)
			n := len(t.Hosts)
			start := time.Now()
			for i, h := range t.Hosts {
				route(t, h, t.Hosts[(i+n/2+1)%n])
			}
			best = math.Min(best, float64(time.Since(start).Microseconds())/float64(n))
		}
		return best
	}
	k.set("topo.path_us.fattree16", "us", perPair("fat-tree", fat,
		func(t *topo.Topology, a, b *netsim.Host) { t.Path(a, b) }))
	k.set("topo.paths4_us.bcube", "us", perPair("bcube", bcube,
		func(t *topo.Topology, a, b *netsim.Host) { t.Paths(a, b, 4) }))
	t := build("fat-tree", fat)
	k.set("topo.partition_ms.fattree16", "ms", 1e3*once(func() { topo.Partition(t, 4) }))
}

func (k *kernels) workload() {
	k.set("workload.gen.flow_ns", "ns", k.perUnit(func(n int) float64 {
		g := workload.NewGen(1, workload.WebSearchSizeDist{}, 0)
		window := sim.Time(n) * sim.Microsecond // 1e6 flows/s: about n flows
		return float64(len(g.Poisson(1e6, window, workload.Permutation{}, 12, nil)) + 1)
	}))
	g := workload.NewGen(1, workload.UniformMean(100<<10), 0)
	flows := g.Batch(4096, workload.Permutation{}, 12, nil, 0)
	k.set("workload.collector.flow_ns", "ns", k.perUnit(func(n int) float64 {
		done := 0
		for done < n {
			c := workload.NewCollector()
			for _, f := range flows {
				c.Register(f)
			}
			for i, f := range flows {
				c.Finish(f.ID, sim.Time(i+1))
			}
			done += len(c.Results())
		}
		return float64(done)
	}))
}

// timers builds an engine holding depth self-rearming timers, the dense
// regime of ROADMAP item 2: every Step pops the earliest and re-arms it
// one period later, so depth stays constant.
func timers(depth int, wheel bool) *sim.Sim {
	s := sim.New()
	if wheel {
		s.UseWheel()
	}
	period := sim.Time(depth) * sim.Microsecond
	var rearm func()
	rearm = func() { s.After(period, rearm) }
	for i := 0; i < depth; i++ {
		s.At(sim.Time(i+1)*sim.Microsecond, rearm)
	}
	return s
}

func (k *kernels) sim() {
	for _, v := range []struct {
		name  string
		depth int
		wheel bool
	}{
		{"sim.heap.fire_ns.d1", 1, false},
		{"sim.heap.fire_ns.d4k", 4096, false},
		{"sim.heap.fire_ns.d1m", 1_000_000, false},
		{"sim.wheel.fire_ns.d4k", 4096, true},
		{"sim.wheel.fire_ns.d1m", 1_000_000, true},
	} {
		s := timers(v.depth, v.wheel)
		k.set(v.name, "ns", k.perOp(func() { s.Step() }))
		if v.name == "sim.heap.fire_ns.d4k" {
			const n = 100_000
			k.set("sim.allocs_per_event", "count", mallocs(func() {
				for i := 0; i < n; i++ {
					s.Step()
				}
			})/n)
		}
	}
	nop := func() {}
	for _, v := range []struct {
		name  string
		wheel bool
	}{{"sim.heap.cancel_ns.d4k", false}, {"sim.wheel.cancel_ns.d4k", true}} {
		s := timers(4096, v.wheel)
		k.set(v.name, "ns", k.perOp(func() {
			// The RTO pattern: arm a timer among the pending ones, cancel it.
			if !s.Cancel(s.After(2*sim.Millisecond, nop)) {
				panic("benchmark: cancel of a pending timer failed")
			}
		}))
	}
}

// bouncer is the harness's sink agent: it sends every packet it receives
// straight back along the reverse path, so one packet walks the line
// forever and every engine step is link and forwarding work.
type bouncer struct {
	net  *netsim.Network
	back []*netsim.Link
}

func (b *bouncer) Receive(p *netsim.Packet, _ *netsim.Link) {
	p.Path = b.back
	b.net.Send(p)
}

// line builds host–4 switches–host and starts one packet of the given
// wire size bouncing between the hosts.
func line(wire int, qdisc func() netsim.Qdisc) (*sim.Sim, []*netsim.Link) {
	s := sim.New()
	net := netsim.NewNetwork(s, 1)
	a := net.NewHost()
	nodes := []netsim.Node{a}
	for i := 0; i < 4; i++ {
		nodes = append(nodes, net.NewSwitch())
	}
	b := net.NewHost()
	nodes = append(nodes, b)
	var fwd []*netsim.Link
	for i := 0; i+1 < len(nodes); i++ {
		fwd = append(fwd, net.NewDuplexLink(nodes[i], nodes[i+1]))
	}
	if qdisc != nil {
		for _, l := range net.Links() {
			l.SetQdisc(qdisc())
		}
	}
	a.Agent = &bouncer{net, fwd}
	b.Agent = &bouncer{net, netsim.ReversePath(fwd)}
	net.Send(&netsim.Packet{Flow: 1, Kind: netsim.DATA, Src: a.ID(), Dst: b.ID(),
		Payload: wire - netsim.IPTCPHeader, Wire: wire, Path: fwd})
	return s, net.Links()
}

// hops sums the packets fully serialized onto the links.
func hops(links []*netsim.Link) float64 {
	var n uint64
	for _, l := range links {
		n += l.TxPackets()
	}
	return float64(n)
}

func (k *kernels) netsim() {
	for _, v := range []struct {
		name, perHop string
		wire         int
		qdisc        func() netsim.Qdisc
	}{
		{"netsim.fifo.hop_ns.w40", "", netsim.ControlWire, nil},
		{"netsim.fifo.hop_ns.w1500", "netsim.fifo.events_per_hop", netsim.MTU, nil},
		{"netsim.ecn.hop_ns.w1500", "", netsim.MTU,
			func() netsim.Qdisc { return &netsim.ECNFIFO{Threshold: netsim.DefaultECNThreshold} }},
		{"netsim.prio.hop_ns.w1500", "netsim.prio.events_per_hop", netsim.MTU,
			func() netsim.Qdisc { return netsim.NewPrio(netsim.DefaultPrioBands) }},
	} {
		s, links := line(v.wire, v.qdisc)
		steps := func(n int) float64 {
			before := hops(links)
			for i := 0; i < n; i++ {
				s.Step()
			}
			return hops(links) - before
		}
		k.set(v.name, "ns", k.perUnit(steps))
		if v.perHop != "" {
			const n = 10_000
			k.set(v.perHop, "count", n/steps(n))
		}
		if v.name == "netsim.fifo.hop_ns.w1500" {
			const n = 100_000
			var done float64
			allocs := mallocs(func() { done = steps(n) })
			k.set("netsim.allocs_per_hop", "count", allocs/done)
		}
	}

	// The drop path: a queue that already holds its capacity rejects the
	// packet at admission. Time does not advance, so it stays full.
	s := sim.New()
	net := netsim.NewNetwork(s, 1)
	l := net.NewLink(net.NewHost(), net.NewHost())
	l.QueueCap = 2 * netsim.MTU
	path := []*netsim.Link{l}
	pkt := func() *netsim.Packet { return &netsim.Packet{Kind: netsim.DATA, Wire: netsim.MTU, Path: path} }
	l.Enqueue(pkt())
	l.Enqueue(pkt())
	p := pkt()
	k.set("netsim.drop_ns", "ns", k.perOp(func() { l.Enqueue(p) }))
	k.ok(l.Drops() > 0 && l.TxPackets() == 0, "netsim.drop_ns: the full queue did not drop")
}

func (k *kernels) core() {
	for _, n := range []int{1, 8, 64} {
		tp := topo.SingleBottleneck(n, 1)
		sys := core.Install(tp, core.Full())
		sw, recv := tp.Switches[0], tp.Hosts[n]
		pkts := make([]*netsim.Packet, n)
		hdrs := make([]*netsim.SchedHeader, n)
		for i := range pkts {
			hdrs[i] = &netsim.SchedHeader{}
			pkts[i] = &netsim.Packet{Flow: netsim.FlowID(i + 1), Kind: netsim.DATA,
				Src: tp.Hosts[i].ID(), Dst: recv.ID(), Wire: netsim.MTU,
				Path: tp.Path(tp.Hosts[i], recv), Hop: 0, Hdr: hdrs[i]}
		}
		i := 0
		process := func() {
			// The header as a sender stamps it; Process overwrites it.
			*hdrs[i] = netsim.SchedHeader{Rate: netsim.DefaultRate, PauseBy: netsim.PauseNone,
				TTrans: sim.Time(i+1) * sim.Millisecond}
			p := pkts[i]
			sys.Logic.Process(sw, p, p.Path[0], p.Path[1])
			if i++; i == n {
				i = 0
			}
		}
		for j := 0; j < n; j++ {
			process() // admit every flow before timing
		}
		k.set(fmt.Sprintf("core.switchlogic.process_ns.n%d", n), "ns", k.perOp(process))
		listLen, _ := sys.Logic.StateOf(recv.Access.Peer)
		k.ok(listLen > 0, "core.switchlogic.process_ns.n%d: bottleneck flow list is empty", n)
	}
	pkt, allocs, events := k.singleFlow(func(t *topo.Topology) flowSystem { return core.Install(t, core.Full()) })
	k.set("core.flow.pkt_ns", "ns", pkt)
	k.set("core.flow.allocs_per_pkt", "count", allocs)
	k.set("core.flow.events_per_pkt", "count", events)
}

// flowSystem is what every packet-level protocol installation offers.
type flowSystem interface {
	Start(workload.Flow)
	Results() []workload.Result
}

// singleFlow drives one 10 MB flow across the single-bottleneck star
// through install/Start/RunUntil and returns host ns, heap objects and
// engine events per data packet.
func (k *kernels) singleFlow(install func(*topo.Topology) flowSystem) (pktNs, allocsPerPkt, eventsPerPkt float64) {
	const size = 10 << 20
	pkts := math.Ceil(float64(size) / netsim.MSS)
	var st *obsv.EngineStats
	var rs []workload.Result
	run := func() {
		tp := topo.SingleBottleneck(5, 1)
		sys := install(tp)
		st = &obsv.EngineStats{}
		tp.Sim().SetStats(st)
		sys.Start(workload.Flow{ID: 1, Src: 0, Dst: 5, Size: size})
		tp.Sim().RunUntil(sim.Second)
		rs = sys.Results()
	}
	allocsPerPkt = mallocs(run) / pkts
	pktNs = once(run) * 1e9 / pkts
	eventsPerPkt = float64(st.Fired.Value()) / pkts
	k.ok(len(rs) == 1 && rs[0].Done(), "single-flow drive did not finish its flow")
	return pktNs, allocsPerPkt, eventsPerPkt
}

func (k *kernels) protocols() {
	for _, v := range []struct {
		name    string
		install func(*topo.Topology) flowSystem
	}{
		{"tcp", func(t *topo.Topology) flowSystem { return tcp.Install(t, tcp.Config{}) }},
		{"dctcp", func(t *topo.Topology) flowSystem { return dctcp.Install(t, dctcp.Config{}) }},
		{"pfabric", func(t *topo.Topology) flowSystem { return pfabric.Install(t, pfabric.Config{}) }},
		{"rcp", func(t *topo.Topology) flowSystem { return rcp.Install(t, rcp.Config{}) }},
		{"d3", func(t *topo.Topology) flowSystem { return d3.Install(t, d3.Config{}) }},
	} {
		pkt, allocs, _ := k.singleFlow(v.install)
		k.set("protocol."+v.name+".pkt_ns", "ns", pkt)
		k.set("protocol."+v.name+".allocs_per_pkt", "count", allocs)
	}
}

func (k *kernels) flowsim() {
	tp := topo.FatTree(8, 1)
	capFn := func(l *netsim.Link) float64 { return float64(l.Rate) }
	for _, n := range []int{128, 1280} {
		g := workload.NewGen(3, workload.UniformMean(1<<20), workload.MeanDeadlineDflt)
		var states []*flowsim.FlowState
		for _, f := range g.Batch(n, workload.Permutation{}, len(tp.Hosts), nil, 0) {
			states = append(states, &flowsim.FlowState{Flow: f,
				Path: tp.Path(tp.Hosts[f.Src], tp.Hosts[f.Dst]), Remaining: float64(f.Size)})
		}
		for _, v := range []struct {
			name  string
			alloc flowsim.Allocator
		}{
			{"pdq", flowsim.NewPDQ(flowsim.CritPerfect, 1)},
			{"rcp", flowsim.NewRCP()},
			{"d3", flowsim.NewD3()},
		} {
			op := func() { v.alloc.Allocate(0, states, capFn) }
			k.set(fmt.Sprintf("flowsim.%s.allocate_us.f%d", v.name, n), "us", k.perOp(op)/1e3)
			if v.name == "pdq" && n == 128 {
				const steps = 1000
				k.set("flowsim.allocs_per_step", "count", mallocs(func() {
					for i := 0; i < steps; i++ {
						op()
					}
				})/steps)
			}
		}
	}
}

func (k *kernels) fluidAndTrace() {
	g := workload.NewGen(1, workload.UniformMean(100<<10), workload.MeanDeadlineDflt)
	flows := g.Batch(64, workload.Aggregation{}, 12, nil, 0)
	k.set("fluid.optimal_us.f64", "us", k.perOp(func() { sink += fluid.OptimalAppThroughput(flows, netsim.DefaultRate) })/1e3)

	cache, err := trace.NewCache(filepath.Join(k.h.tmp, "kernel-cache-rw"))
	if !k.ok(err == nil, "trace.cache kernels: %v", err) {
		return
	}
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = trace.Key([]byte{byte(i)})
	}
	i := 0
	k.set("trace.cache.put_us", "us", k.perOp(func() {
		cache.PutFloat(keys[i%len(keys)], float64(i))
		i++
	})/1e3)
	k.set("trace.cache.get_us", "us", k.perOp(func() {
		if _, ok := cache.GetFloat(keys[i%len(keys)]); !ok {
			panic("benchmark: cache entry just written is missing")
		}
		i++
	})/1e3)
}
