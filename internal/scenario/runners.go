package scenario

import (
	"fmt"
	"log/slog"
	"math"
	"sync"

	"pdq/internal/core"
	"pdq/internal/flowsim"
	"pdq/internal/fluid"
	"pdq/internal/netsim"
	"pdq/internal/obsv"
	"pdq/internal/protocol"
	"pdq/internal/protocol/d3"
	"pdq/internal/protocol/dctcp"
	"pdq/internal/protocol/pfabric"
	"pdq/internal/protocol/rcp"
	"pdq/internal/protocol/tcp"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

// attachTelemetry hangs the cell's telemetry capture off one packet-level
// run: the flow-record sink on the collector, and — when probing is on —
// fixed-stride samples of every link's queue depth and utilization plus
// the active-flow count. With a nil cell this is a no-op and the
// simulation schedules exactly the events it always did.
//
// Flow-record emission is deferred to the collector's post-run flush on
// every engine configuration: a record is a pure function of the merged
// endpoint view — final counter totals, virtual completion order — so
// the record stream is identical however the cell runs. (Eager emission
// would cut a record at the first completion event and miss counters
// that land after it, e.g. a pause reaching the sender after the
// receiver finished — a physical-order artifact under sharding.)
//
// Probes split by engine. On the single engine one prober samples
// everything. Under a shard group (DESIGN.md §14) each link's columns
// sample on its owner shard's engine, and the active-flow series — a
// global view — is cut at barriers, where every tick older than the
// window is value-exact. The returned hook flushes the records (and the
// sharded series tail); the caller runs it after the engines stop.
func attachTelemetry(ct *trace.CellTrace, t *topo.Topology, c *workload.Collector, g *sim.ShardGroup, horizon sim.Time) func() {
	if ct == nil {
		return nil
	}
	c.Sink = ct.FlowSink()
	c.DeferEmission()
	stride := ct.Stride()
	secs := float64(stride) / float64(sim.Second)
	if g == nil {
		if !ct.WantProbes() {
			return c.FlushTrace
		}
		s := t.Sim()
		p := trace.NewProber(s, stride)
		p.StopWhen = c.AllDone // don't sample idle links out to the horizon
		p.Add("active-flows", func() float64 { return float64(c.ActiveAt(s.Now())) })
		for _, l := range t.Net.Links() {
			l := l
			p.Add(fmt.Sprintf("qdepth:%s", l), func() float64 { return float64(l.QueueBytes()) })
			var lastTx uint64
			p.Add(fmt.Sprintf("util:%s", l), func() float64 {
				cur := l.TxBytes()
				d := cur - lastTx
				lastTx = cur
				return float64(d*8) / (float64(l.Rate) * secs) * 100
			})
		}
		p.Start()
		ct.Probes = p.Series()
		return c.FlushTrace
	}
	if !ct.WantProbes() {
		return c.FlushTrace
	}
	// One prober per shard that owns probed state; a link's columns go to
	// its From node's owner engine, so every sample reads shard-local
	// state only.
	probers := make([]*trace.Prober, g.Shards())
	shardIdx := make(map[*sim.Sim]int, g.Shards())
	for i := 0; i < g.Shards(); i++ {
		shardIdx[g.Shard(i)] = i
	}
	perLink := make([]*trace.Series, 0, 2*len(t.Net.Links()))
	for _, l := range t.Net.Links() {
		l := l
		i := shardIdx[t.Net.SimFor(l.From.ID())]
		if probers[i] == nil {
			probers[i] = trace.NewProber(g.Shard(i), stride)
		}
		p := probers[i]
		perLink = append(perLink, p.Add(fmt.Sprintf("qdepth:%s", l), func() float64 { return float64(l.QueueBytes()) }))
		var lastTx uint64
		perLink = append(perLink, p.Add(fmt.Sprintf("util:%s", l), func() float64 {
			cur := l.TxBytes()
			d := cur - lastTx
			lastTx = cur
			return float64(d*8) / (float64(l.Rate) * secs) * 100
		}))
	}
	for _, p := range probers {
		if p != nil {
			p.Start()
		}
	}
	// The active-flow count needs both endpoints of every flow, so it is
	// sampled from the barrier hook: entering window [w, w+L) every event
	// before w has fired, making ActiveAt(tick) exact for ticks < w. The
	// same sweep evaluates the stop rule (every flow done by the tick) and
	// parks the per-shard probers — a few samples later than the single
	// engine's same-tick stop, but on the partition-independent window
	// grid, so series are identical at any shard count.
	active := &trace.Series{Name: "active-flows", Stride: stride}
	next := sim.Time(stride)
	stopped := false
	cutTicks := func(limit sim.Time, strict bool) {
		for !stopped && (next < limit || (!strict && next <= limit)) {
			active.Vals = append(active.Vals, float64(c.ActiveAt(next)))
			if c.AllDoneBy(next) {
				stopped = true
				for _, p := range probers {
					if p != nil {
						p.Stop()
					}
				}
			}
			next += sim.Time(stride)
		}
	}
	g.SetBarrierHook(func(windowStart sim.Time) { cutTicks(windowStart, true) })
	return func() {
		cutTicks(horizon, false)
		ct.Probes = append([]*trace.Series{active}, perLink...)
		c.FlushTrace()
	}
}

// mkPacket wraps a packet-level install function into a RunnerFunc on
// the single engine. Protocols whose state partitions cleanly over
// shards use mkPacketShardable instead.
func mkPacket(install func(t *topo.Topology) protocol.Installed) RunnerFunc {
	return mkPacketLevel(install, false)
}

// mkPacketShardable is mkPacket for shard-safe protocols (per-host
// agents, no cross-host switch logic, no collector field shared between
// a flow's two endpoints): when the run context asks for shards and the
// cell qualifies (shardGroupFor), the simulation partitions over a
// ShardGroup; otherwise it runs the identical single-engine path.
func mkPacketShardable(install func(t *topo.Topology) protocol.Installed) RunnerFunc {
	return mkPacketLevel(install, true)
}

func mkPacketLevel(install func(t *topo.Topology) protocol.Installed, shardSafe bool) RunnerFunc {
	return func(build func() *topo.Topology, flows []workload.Flow, rc RunCtx) []workload.Result {
		t := build()
		// A single heap engine runs in storage an earlier cell left behind
		// (spareStorage); sharded and wheel cells build theirs from scratch.
		recycle := rc.Shards <= 1 && rc.Sched != "wheel"
		if recycle {
			t.Sim().Reuse(spareStorage.Get().(sim.Storage))
		}
		sys := install(t)
		if rc.Qdisc != nil {
			// Per-row `qdisc:` override: applied after install so it wins
			// over the protocol's own default discipline.
			for _, l := range t.Net.Links() {
				l.SetQdisc(rc.Qdisc())
			}
		}
		// Sharding and the timer backend are decided before any event is
		// scheduled: EnableSharding validates the topology against the
		// lookahead, and UseWheel refuses a non-empty queue.
		g := shardGroupFor(t, rc, sys, shardSafe)
		if rc.Sched == "wheel" {
			if g != nil {
				for i := 0; i < g.Shards(); i++ {
					g.Shard(i).UseWheel()
				}
			} else {
				t.Sim().UseWheel()
			}
		}
		// Faults are applied after installation and before telemetry or any
		// flow start — always the same code position, so fault event
		// sequence numbers are deterministic (DESIGN.md §11).
		rc.Faults.Apply(t, sys, rc.Cell)
		fin := attachTelemetry(rc.Cell, t, sys.FlowCollector(), g, rc.Horizon)
		for _, f := range flows {
			sys.Start(f)
		}
		if g != nil {
			// A sharded probe runs to the horizon: a flow's two endpoints
			// report from two shards, out of virtual order, and the tally
			// is one account.
			runShardGroup(g, rc)
		} else if !armVerdict(sys.FlowCollector(), rc.Decided, t.Sim().Halt) {
			runEngine(t.Sim(), rc)
		}
		if fin != nil {
			fin()
		}
		rs := sys.Results()
		if rc.inspect != nil {
			rc.inspect(t)
		}
		if recycle {
			spareStorage.Put(t.Sim().Yield())
		}
		return rs
	}
}

// spareStorage holds the event storage finished single-engine cells leave
// for later cells' engines, shared by every sweep worker of the process,
// so an engine grows only past what the storage it took already holds
// (DESIGN.md §2). Only the storage moves, never the engine: a watchdog
// that interrupts a cell after the cell handed its storage on interrupts
// a dead engine. The pool is emptied by the garbage collector, which
// bounds what an idle process keeps.
var spareStorage = sync.Pool{New: func() any { return sim.Storage{} }}

// armVerdict makes a search probe stop at its verdict: from now on the
// run's collector hands its deadline tally to decided (RunCtx.Decided, nil
// for every other run) at each flow outcome, and the first true calls
// halt. It reports whether the verdict stands before the first event — a
// flow set with no deadlines — in which case the caller has nothing to
// run.
func armVerdict(c *workload.Collector, decided func(workload.Tally) bool, halt func()) bool {
	if decided == nil {
		return false
	}
	c.Watch(func(t workload.Tally) {
		if decided(t) {
			halt()
		}
	})
	return decided(c.Tally())
}

// Shard-fallback reasons: every gate that drops a multi-shard request to
// the single engine names itself, on the debug log and in tests.
const (
	fallbackRunner    = "runner not shard-safe"
	fallbackLookahead = "zero lookahead"
)

// shardFallback returns the reason a cell cannot shard, or "" when it
// can: the runner must be shard-safe, the fault schedule must not need
// cross-shard protocol callbacks (fault.Schedule.ShardBlocker — path
// updates, soft-state resets), and the lookahead — the minimum link
// delay — must be positive. Loss does not gate: coins draw from
// per-link streams, partition-independent by construction (DESIGN.md
// §14). Telemetry does not gate: traced sharded cells defer record
// emission and probe per shard (attachTelemetry).
func shardFallback(t *topo.Topology, rc RunCtx, sys protocol.Installed, shardSafe bool) string {
	if !shardSafe {
		return fallbackRunner
	}
	if r := rc.Faults.ShardBlocker(t, sys); r != "" {
		return r
	}
	if topo.MinLinkDelay(t) <= 0 {
		return fallbackLookahead
	}
	return ""
}

// shardGroupFor decides whether a cell shards and builds its group.
// Every fallback runs the unmodified single-engine path, says why on
// the debug log, and reports 1 on the shards_active gauge.
func shardGroupFor(t *topo.Topology, rc RunCtx, sys protocol.Installed, shardSafe bool) *sim.ShardGroup {
	if rc.Shards <= 1 {
		rc.Obs.SetShardsActive(1)
		return nil
	}
	if reason := shardFallback(t, rc, sys, shardSafe); reason != "" {
		slog.Debug("scenario: cell fell back to the single engine", "reason", reason, "shards", rc.Shards)
		rc.Obs.SetShardsActive(1)
		return nil
	}
	g := sim.NewShardGroup(rc.Shards, topo.MinLinkDelay(t))
	t.Net.EnableSharding(g, topo.Partition(t, rc.Shards))
	rc.Obs.SetShardsActive(int64(rc.Shards))
	return g
}

// runEngine drives one packet-level simulation to its horizon with the
// runaway-cell guards armed: the deterministic event budget and, when the
// command layer injected one, the wall-clock watchdog. Both trip by
// panicking; the sweep executor recovers the panic into NaN plus a
// diagnostic.
func runEngine(s *sim.Sim, rc RunCtx) {
	if rc.MaxEvents > 0 {
		s.SetMaxEvents(rc.MaxEvents)
	}
	if rc.Obs != nil {
		// The block is private to this cell's goroutine; the merge happens
		// once, after the run — including a run cut short by a guard panic
		// — so no synchronization touches the event loop.
		s.SetStats(&obsv.EngineStats{})
		defer func() { rc.Obs.MergeEngine(s.Stats()) }()
	}
	if rc.Watchdog != nil {
		defer rc.Watchdog(s.Interrupt)()
	}
	s.RunUntil(rc.Horizon)
}

// runShardGroup is runEngine for a sharded cell: the same guards, armed
// on the group (the event budget trips at barriers, which keeps it
// deterministic at any shard count).
func runShardGroup(g *sim.ShardGroup, rc RunCtx) {
	if rc.MaxEvents > 0 {
		g.SetMaxEvents(rc.MaxEvents)
	}
	if rc.Obs != nil {
		// Per-shard blocks merged at the group's own barriers; phase wall
		// time comes from the injected clock (nil just disables timing).
		g.SetObserver(rc.Obs, rc.Clock)
	}
	if rc.Watchdog != nil {
		defer rc.Watchdog(g.Interrupt)()
	}
	g.RunUntil(rc.Horizon)
}

// pdqMake binds one PDQ variant's config constructor into a Make
// function. Every variant accepts a `subflows` parameter (Multipath
// PDQ, §6); 0 leaves the config default of one subflow. The
// registrations stay inline in init with literal names so the registry
// analyzer can enumerate them statically.
func pdqMake(cfg func() core.Config) func(p map[string]float64, seed int64) RunnerFunc {
	return func(p map[string]float64, _ int64) RunnerFunc {
		c := cfg()
		c.Subflows = int(p["subflows"])
		return mkPacketShardable(func(t *topo.Topology) protocol.Installed { return core.Install(t, c) })
	}
}

// pdqParams returns the parameter surface every PDQ variant accepts.
func pdqParams() map[string]float64 {
	return map[string]float64{"subflows": 0}
}

// pdqCheck rejects a subflow count pdqMake's int conversion would
// truncate or core could not build.
func pdqCheck(p map[string]float64) error {
	if n := p["subflows"]; n < 0 || n != math.Trunc(n) {
		return fmt.Errorf("parameter \"subflows\" = %v: want a non-negative integer", n)
	}
	return nil
}

// flowMake binds one flow-level allocator family into a Make function.
// A fresh allocator is built per invocation, matching the packet-level
// runners' fresh-state-per-run semantics. The flow-level simulator
// steps its own clock (no event engine), so it emits flow records but
// no time-series probes.
func flowMake(alloc func(p map[string]float64, seed int64) flowsim.Allocator) func(p map[string]float64, seed int64) RunnerFunc {
	return func(p map[string]float64, seed int64) RunnerFunc {
		return func(build func() *topo.Topology, flows []workload.Flow, rc RunCtx) []workload.Result {
			s := flowsim.New(build(), alloc(p, seed))
			s.ET = p["et"] != 0
			if rc.Cell != nil {
				s.Collector.Sink = rc.Cell.FlowSink()
			}
			if !rc.Faults.Empty() {
				s.ApplyFaults(rc.Faults, rc.Cell)
			}
			for _, f := range flows {
				s.Start(f)
			}
			if !armVerdict(s.Collector, rc.Decided, s.Halt) {
				s.Run(rc.Horizon)
			}
			return s.Results()
		}
	}
}

func init() {
	RegisterRunner(RunnerEntry{
		Name: "PDQ(Full)", Doc: "PDQ with Early Start, Early Termination and Suppressed Probing", Level: "packet", ShardSafe: true,
		Params: pdqParams(), Check: pdqCheck, Make: pdqMake(core.Full),
	})
	RegisterRunner(RunnerEntry{
		Name: "PDQ(ES+ET)", Doc: "PDQ with Early Start and Early Termination", Level: "packet", ShardSafe: true,
		Params: pdqParams(), Check: pdqCheck, Make: pdqMake(core.ESET),
	})
	RegisterRunner(RunnerEntry{
		Name: "PDQ(ES)", Doc: "PDQ with Early Start only", Level: "packet", ShardSafe: true,
		Params: pdqParams(), Check: pdqCheck, Make: pdqMake(core.ES),
	})
	RegisterRunner(RunnerEntry{
		Name: "PDQ(Basic)", Doc: "preemptive scheduling without the §4 optimizations", Level: "packet", ShardSafe: true,
		Params: pdqParams(), Check: pdqCheck, Make: pdqMake(core.Basic),
	})
	RegisterRunner(RunnerEntry{
		Name: "D3", Doc: "Deadline-Driven Delivery (packet level)", Level: "packet",
		Make: func(map[string]float64, int64) RunnerFunc {
			return mkPacket(func(t *topo.Topology) protocol.Installed { return d3.Install(t, d3.Config{}) })
		},
	})
	RegisterRunner(RunnerEntry{
		Name: "RCP", Doc: "Rate Control Protocol (packet level)", Level: "packet",
		Make: func(map[string]float64, int64) RunnerFunc {
			return mkPacket(func(t *topo.Topology) protocol.Installed { return rcp.Install(t, rcp.Config{}) })
		},
	})
	RegisterRunner(RunnerEntry{
		Name: "RCP/D3", Doc: "alias for RCP (D3 behaves identically without deadlines)", Level: "packet",
		Make: func(map[string]float64, int64) RunnerFunc {
			return mkPacket(func(t *topo.Topology) protocol.Installed { return rcp.Install(t, rcp.Config{}) })
		},
	})
	RegisterRunner(RunnerEntry{
		Name: "TCP", Doc: "TCP NewReno-style baseline (packet level)", Level: "packet", ShardSafe: true,
		Make: func(map[string]float64, int64) RunnerFunc {
			return mkPacketShardable(func(t *topo.Topology) protocol.Installed { return tcp.Install(t, tcp.Config{}) })
		},
	})
	RegisterRunner(RunnerEntry{
		Name: "DCTCP", Doc: "DCTCP: ECN threshold marking at switches, g-weighted α window cut (packet level)", Level: "packet", ShardSafe: true,
		Params: map[string]float64{
			"g":            dctcp.DefaultG,
			"threshold_kb": float64(netsim.DefaultECNThreshold) / 1024,
		},
		Make: func(p map[string]float64, _ int64) RunnerFunc {
			return mkPacketShardable(func(t *topo.Topology) protocol.Installed {
				return dctcp.Install(t, dctcp.Config{G: p["g"], Threshold: int(p["threshold_kb"] * 1024)})
			})
		},
	})
	RegisterRunner(RunnerEntry{
		Name: "pFabric", Doc: "pFabric: remaining-size packet priorities, strict-priority switches, minimal rate control (packet level)", Level: "packet", ShardSafe: true,
		Params: map[string]float64{
			"bands":     float64(netsim.DefaultPrioBands),
			"init_cwnd": pfabric.DefaultInitCwnd,
			"rtomin_us": float64(pfabric.DefaultRTOmin) / float64(sim.Microsecond),
		},
		Make: func(p map[string]float64, _ int64) RunnerFunc {
			return mkPacketShardable(func(t *topo.Topology) protocol.Installed {
				return pfabric.Install(t, pfabric.Config{
					Bands: int(p["bands"]),
					TCP: tcp.Config{
						InitCwnd: p["init_cwnd"],
						RTOmin:   sim.Time(p["rtomin_us"] * float64(sim.Microsecond)),
					},
				})
			})
		},
	})

	RegisterRunner(RunnerEntry{
		Name: "flow:PDQ", Doc: "flow-level PDQ: crit 0=perfect 1=random 2=size-estimation; aging is Fig. 12's α; et enables Early Termination", Level: "flow",
		Params: map[string]float64{"crit": 0, "aging": 0, "et": 0},
		Make: flowMake(func(p map[string]float64, seed int64) flowsim.Allocator {
			a := flowsim.NewPDQ(flowsim.CritMode(int(p["crit"])), seed)
			a.AgingRate = p["aging"]
			return a
		}),
	})
	RegisterRunner(RunnerEntry{
		Name: "flow:RCP", Doc: "flow-level max-min fair sharing (RCP; also D3 without deadlines)", Level: "flow",
		Params: map[string]float64{"et": 0},
		Make:   flowMake(func(map[string]float64, int64) flowsim.Allocator { return flowsim.NewRCP() }),
	})
	RegisterRunner(RunnerEntry{
		Name: "flow:D3", Doc: "flow-level D3: arrival-order reservation plus fair share of the rest", Level: "flow",
		Params: map[string]float64{"et": 0},
		Make:   flowMake(func(map[string]float64, int64) flowsim.Allocator { return flowsim.NewD3() }),
	})
	RegisterRunner(RunnerEntry{
		Name: "flow:fluid", Doc: "idealized single-bottleneck fluid model: policy 0=SRPT (the paper's Optimal) 1=fair sharing 2=Moore-Hodgson deadline EDF; gbps is the bottleneck rate", Level: "flow",
		Params: map[string]float64{"policy": 0, "gbps": 1},
		Make: func(p map[string]float64, _ int64) RunnerFunc {
			policy := int(p["policy"])
			bps := int64(p["gbps"] * 1e9)
			return func(_ func() *topo.Topology, flows []workload.Flow, rc RunCtx) []workload.Result {
				var comp fluid.Completion
				switch policy {
				case 0:
					comp = fluid.SRPT(flows, bps)
				case 1:
					comp = fluid.FairShare(flows, bps)
				case 2:
					comp, _ = fluid.MooreHodgson(flows, bps)
				default:
					panic(fmt.Sprintf("flow:fluid: unknown policy %d", policy))
				}
				out := make([]workload.Result, len(flows))
				for i, f := range flows {
					out[i] = workload.Result{Flow: f, Finish: -1}
					if t, ok := comp[f.ID]; ok && t <= rc.Horizon {
						out[i].Finish = t
						out[i].BytesAcked = f.Size
					}
				}
				return out
			}
		},
	})
}
