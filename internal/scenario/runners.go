package scenario

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"

	"pdq/internal/carve"
	"pdq/internal/core"
	"pdq/internal/flowsim"
	"pdq/internal/fluid"
	"pdq/internal/netsim"
	"pdq/internal/params"
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

// attachProbes installs the cell's time-series probes on one packet-level
// run when probing is on: fixed-stride samples of every link's queue depth
// and utilization plus the active-flow count. Otherwise the simulation
// schedules exactly the events it always did.
func attachProbes(ct *trace.CellTrace, t *topo.Topology, c *workload.Collector) {
	if !ct.WantProbes() {
		return
	}
	stride := ct.Stride()
	s := t.Sim()
	p := trace.NewProber(s, stride)
	p.StopWhen = c.AllDone // don't sample idle links out to the horizon
	p.Add("active-flows", func() float64 { return float64(c.ActiveAt(s.Now())) })
	for _, l := range t.Net.Links() {
		p.Add(fmt.Sprintf("qdepth:%s", l), queueSampler(l))
		p.Add(fmt.Sprintf("util:%s", l), utilSampler(l, stride))
	}
	p.Start()
	ct.Probes = p.Series()
}

// utilSampler samples l's delivered throughput over each stride, as a
// percentage of its rate.
func utilSampler(l *netsim.Link, stride sim.Duration) func() float64 {
	var lastTx uint64
	secs := float64(stride) / float64(sim.Second)
	return func() float64 {
		cur := l.TxBytes()
		d := cur - lastTx
		lastTx = cur
		return float64(d*8) / (float64(l.Rate) * secs) * 100
	}
}

// queueSampler samples l's queue depth in bytes.
func queueSampler(l *netsim.Link) func() float64 {
	return func() float64 { return float64(l.QueueBytes()) }
}

// mkPacket wraps a packet-level install function into a RunnerFunc.
func mkPacket(install func(t *topo.Topology) protocol.Installed) RunnerFunc {
	return func(build func() *topo.Topology, flows []workload.Flow, rc RunCtx) []workload.Result {
		t := build()
		// The engine runs in storage an earlier cell left behind
		// (spareStorage).
		t.Sim().Reuse(spareStorage.Get().(sim.Storage))
		sys := install(t)
		if rc.Qdisc != nil {
			// Per-row `qdisc:` override: applied after install so it wins
			// over the protocol's own default discipline.
			for _, l := range t.Net.Links() {
				l.SetQdisc(rc.Qdisc())
			}
		}
		// Faults are applied after installation and before telemetry or any
		// flow start — always the same code position, so fault event
		// sequence numbers are deterministic (DESIGN.md §11).
		rc.Faults.Apply(t, sys, rc.Cell)
		attachProbes(rc.Cell, t, sys.FlowCollector())
		for _, f := range flows {
			sys.Start(f)
		}
		if rc.link != nil {
			rc.link(t)
		}
		if !armVerdict(sys.FlowCollector(), rc.Decided, t.Sim().Halt) {
			runEngine(t.Sim(), rc)
		}
		rc.Cell.CutFlows(sys.FlowCollector())
		rs := sys.Results()
		if rc.inspect != nil {
			rc.inspect(t)
		}
		spareStorage.Put(t.Sim().Yield())
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

// runEngine drives one packet-level simulation to its horizon, counting
// into the cell record's block (a run cut short keeps the counts it
// reached), with the runaway-cell guards armed: the deterministic event
// budget and, when the command layer injected one, the wall-clock
// watchdog. Both trip by panicking; the sweep executor recovers the panic
// into NaN plus a diagnostic.
func runEngine(s *sim.Sim, rc RunCtx) {
	if rc.MaxEvents > 0 {
		s.SetMaxEvents(rc.MaxEvents)
	}
	s.SetStats(rc.stats)
	if rc.Watchdog != nil {
		defer rc.Watchdog(s.Interrupt)()
	}
	s.RunUntil(rc.Horizon)
}

// pdqEntry registers one PDQ variant. Every variant accepts a `subflows`
// parameter (Multipath PDQ, §6); 0 leaves the config default of one
// subflow, and 64 bounds it: every flow builds that many pacers, and the
// paper's sweep stops at 8 (Fig. 11b).
func pdqEntry(name, doc string, cfg func() core.Config) RunnerEntry {
	return RunnerEntry{
		Name: name, Doc: doc, Level: "packet",
		Params: map[string]float64{"subflows": 0},
		Check:  func(p map[string]float64) error { return params.Int("subflows", p["subflows"], 0, 64) },
		Make: func(p map[string]float64, _ int64) RunnerFunc {
			c := cfg()
			c.Subflows = int(p["subflows"])
			return mkPacket(func(t *topo.Topology) protocol.Installed { return core.Install(t, c) })
		},
	}
}

// flowMake binds one flow-level allocator family into a Make function.
// The run takes its network's allocator of the family, which alloc returns
// readied for the run's parameters and seed: one per network and kind,
// kept in the network's arena (carve.Keep), so it grows to that network's
// runs once and is rewound with the arena at every reset, when the flows
// it names die. The flow-level simulator steps its own clock (no event
// engine), so it records flows but takes no time-series probes.
func flowMake(alloc func(a *carve.Arena, p map[string]float64, seed int64) flowsim.Allocator) func(p map[string]float64, seed int64) RunnerFunc {
	return func(p map[string]float64, seed int64) RunnerFunc {
		return func(build func() *topo.Topology, flows []workload.Flow, rc RunCtx) []workload.Result {
			t := build()
			s := flowsim.New(t, alloc(t.Net.Arena(), p, seed))
			s.ET = p["et"] != 0
			s.ApplyFaults(rc.Faults, rc.Cell)
			for _, f := range flows {
				s.Start(f)
			}
			if !armVerdict(s.Collector, rc.Decided, s.Halt) {
				runFlow(s, rc)
			}
			rc.Cell.CutFlows(s.Collector)
			return s.Results()
		}
	}
}

// runFlow drives one flow-level simulation to its horizon under the
// wall-clock watchdog, when the command layer injected one; an interrupt
// panics as the packet engine's does (runEngine). The event budget is the
// packet engine's alone: a flow-level run is bounded by its horizon.
func runFlow(s *flowsim.Sim, rc RunCtx) {
	if rc.Watchdog != nil {
		defer rc.Watchdog(s.Interrupt)()
	}
	s.Run(rc.Horizon)
}

// newPDQ makes a network's PDQ allocator, which every run resets.
func newPDQ() *flowsim.PDQ { return flowsim.NewPDQ(flowsim.CritPerfect, 0) }

// runners is the table of protocol runners, packet and flow level.
var runners = params.NewRegistry("runner", RunnerEntry.decl, []RunnerEntry{
	pdqEntry("PDQ(Full)", "PDQ with Early Start, Early Termination and Suppressed Probing", core.Full),
	pdqEntry("PDQ(ES+ET)", "PDQ with Early Start and Early Termination", core.ESET),
	pdqEntry("PDQ(ES)", "PDQ with Early Start only", core.ES),
	pdqEntry("PDQ(Basic)", "preemptive scheduling without the §4 optimizations", core.Basic),
	{
		Name: "D3", Doc: "Deadline-Driven Delivery (packet level)", Level: "packet",
		Make: func(map[string]float64, int64) RunnerFunc {
			return mkPacket(func(t *topo.Topology) protocol.Installed { return d3.Install(t, d3.Config{}) })
		},
	},
	{
		Name: "RCP", Doc: "Rate Control Protocol (packet level)", Level: "packet",
		Make: func(map[string]float64, int64) RunnerFunc {
			return mkPacket(func(t *topo.Topology) protocol.Installed { return rcp.Install(t, rcp.Config{}) })
		},
	},
	{
		Name: "TCP", Doc: "TCP NewReno-style baseline (packet level)", Level: "packet",
		Make: func(map[string]float64, int64) RunnerFunc {
			return mkPacket(func(t *topo.Topology) protocol.Installed { return tcp.Install(t, tcp.Config{}) })
		},
	},
	{
		Name: "DCTCP", Doc: "DCTCP: ECN threshold marking at switches, g-weighted α window cut (packet level)", Level: "packet",
		Params: map[string]float64{
			"g":            dctcp.DefaultG,
			"threshold_kb": float64(netsim.DefaultECNThreshold) / 1024,
		},
		Check: func(p map[string]float64) error {
			if g := p["g"]; !(g > 0 && g <= 1) {
				return fmt.Errorf("parameter \"g\" = %v: want 0 < g <= 1", g)
			}
			// Under one byte the threshold would truncate to the default.
			return params.In("threshold_kb", p["threshold_kb"], 1.0/1024, math.Inf(1))
		},
		Make: func(p map[string]float64, _ int64) RunnerFunc {
			return mkPacket(func(t *topo.Topology) protocol.Installed {
				return dctcp.Install(t, dctcp.Config{G: p["g"], Threshold: int(p["threshold_kb"] * 1024)})
			})
		},
	},
	{
		Name: "pFabric", Doc: "pFabric: remaining-size packet priorities, strict-priority switches, minimal rate control (packet level)", Level: "packet",
		Params: map[string]float64{
			"bands":     float64(netsim.DefaultPrioBands),
			"init_cwnd": pfabric.DefaultInitCwnd,
			"rtomin_us": float64(pfabric.DefaultRTOmin) / float64(sim.Microsecond),
		},
		Check: func(p map[string]float64) error {
			return cmp.Or(params.Int("bands", p["bands"], 1, netsim.MaxPrioBands),
				params.In("init_cwnd", p["init_cwnd"], 1, math.Inf(1)), params.In("rtomin_us", p["rtomin_us"], 0.001, math.Inf(1)))
		},
		Make: func(p map[string]float64, _ int64) RunnerFunc {
			return mkPacket(func(t *topo.Topology) protocol.Installed {
				return pfabric.Install(t, pfabric.Config{
					Bands: int(p["bands"]),
					TCP: tcp.Config{
						InitCwnd: p["init_cwnd"],
						RTOmin:   sim.Time(p["rtomin_us"] * float64(sim.Microsecond)),
					},
				})
			})
		},
	},

	{
		Name: "flow:PDQ", Doc: "flow-level PDQ: crit 0=perfect 1=random 2=size-estimation; aging is Fig. 12's α; et enables Early Termination", Level: "flow",
		Params: map[string]float64{"crit": 0, "aging": 0, "et": 0},
		Check: func(p map[string]float64) error {
			return cmp.Or(params.Int("crit", p["crit"], 0, 2), params.In("aging", p["aging"], 0, math.Inf(1)), params.Int("et", p["et"], 0, 1))
		},
		Make: flowMake(func(a *carve.Arena, p map[string]float64, seed int64) flowsim.Allocator {
			pdq := carve.Keep(a, newPDQ)
			pdq.Reset(flowsim.CritMode(int(p["crit"])), seed, p["aging"])
			return pdq
		}),
	},
	{
		Name: "flow:RCP", Doc: "flow-level max-min fair sharing (RCP; also D3 without deadlines)", Level: "flow",
		Params: map[string]float64{"et": 0},
		Check:  func(p map[string]float64) error { return params.Int("et", p["et"], 0, 1) },
		Make: flowMake(func(a *carve.Arena, _ map[string]float64, _ int64) flowsim.Allocator {
			return carve.Keep(a, flowsim.NewRCP)
		}),
	},
	{
		Name: "flow:D3", Doc: "flow-level D3: arrival-order reservation plus fair share of the rest", Level: "flow",
		Params: map[string]float64{"et": 0},
		Check:  func(p map[string]float64) error { return params.Int("et", p["et"], 0, 1) },
		Make: flowMake(func(a *carve.Arena, _ map[string]float64, _ int64) flowsim.Allocator {
			return carve.Keep(a, flowsim.NewD3)
		}),
	},
	{
		Name: "flow:fluid", Doc: "idealized single-bottleneck fluid model: policy 0=SRPT (the paper's Optimal without deadlines) 1=fair sharing 2=Moore-Hodgson deadline EDF (its Optimal with deadlines, §5.2.1) 3=D3's reservations in arrival order (Fig. 1); gbps is the bottleneck rate", Level: "flow",
		Params: map[string]float64{"policy": 0, "gbps": 1},
		Check: func(p map[string]float64) error {
			return cmp.Or(params.Int("policy", p["policy"], 0, 3), params.In("gbps", p["gbps"], 1e-9, math.Inf(1)))
		},
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
				case 3:
					comp = fluid.D3(flows, bps)
				default:
					panic(fmt.Sprintf("flow:fluid: unknown policy %d", policy))
				}
				// The closed form is fed to a collector as a simulator
				// would report it: in time order, ties by flow ID, so the
				// deadline tally sees non-decreasing instants and a probe
				// stops at its verdict.
				c := workload.NewCollector()
				var done []workload.Flow // those finishing within the horizon
				for _, f := range flows {
					c.Register(f)
					if t, ok := comp[f.ID]; ok && t <= rc.Horizon {
						done = append(done, f)
					}
				}
				slices.SortFunc(done, func(a, b workload.Flow) int {
					return cmp.Or(cmp.Compare(comp[a.ID], comp[b.ID]), cmp.Compare(a.ID, b.ID))
				})
				halted := false
				if !armVerdict(c, rc.Decided, func() { halted = true }) {
					for _, f := range done {
						if halted {
							break
						}
						c.Finish(f.ID, comp[f.ID])
					}
				}
				rc.Cell.CutFlows(c)
				return c.Results()
			}
		},
	},
})
