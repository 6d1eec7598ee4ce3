package scenario

import (
	"pdq/internal/fault"
	"pdq/internal/netsim"
	"pdq/internal/obsv"
	"pdq/internal/params"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

// RunCtx is the per-run context handed to a runner beyond its inputs:
// the runaway-cell guards, the plan's horizon, and what belongs to this
// one run. The zero Cell means tracing is off and the runner must add no
// telemetry work to the simulation.
type RunCtx struct {
	// MaxEvents and Watchdog are the runaway-cell guards (Opts fields of
	// the same names), the same for every run of a scenario and never
	// shaping a result: every packet engine runs under both (runEngine),
	// and every flow-level simulation under the watchdog (runFlow).
	MaxEvents uint64
	Watchdog  func(interrupt func()) (stop func())

	// Horizon is how long to simulate.
	Horizon sim.Time

	Cell *trace.CellTrace

	// Qdisc, when non-nil, is the row's `qdisc:` override: packet-level
	// runners install a fresh instance on every link of the built
	// topology after protocol installation, so it wins over whatever
	// discipline the protocol installs by default (e.g. DCTCP's ECN
	// FIFO). Flow-level runners have no packet queues; specs pairing
	// them with a qdisc fail at compile time.
	Qdisc func() netsim.Qdisc

	// Faults is the cell's compiled fault schedule, nil for a fault-free
	// run. Runners apply it after protocol installation and before any
	// flow starts (DESIGN.md §11).
	Faults *fault.Schedule

	// Decided, when non-nil, marks the run as a search probe: only the
	// truth of `metric >= threshold` will be read off its results, and
	// Decided reports whether the deadline tally has fixed it. A runner
	// calls it at every flow outcome and stops the simulation at the first
	// true (armVerdict); a runner that ignores it, and any run without it,
	// goes to the horizon.
	Decided func(workload.Tally) bool

	// link, when non-nil, attaches link metrics' probes (MetricEntry.Link)
	// after the flows start and before the engine runs.
	link func(*topo.Topology)

	// inspect, when non-nil, sees a packet-level run's topology after the
	// run and before its engine hands its storage on: the last point at
	// which a test can read the engine's clock and queue, or resume it.
	inspect func(*topo.Topology)

	// stats is the instrument block of the cell record the run counts
	// into; runEngine attaches it to the engine (DESIGN.md §13).
	stats *obsv.EngineStats
}

// RunnerFunc runs one protocol over a set of flows on the topology build
// returns and returns per-flow results. build returns a topology in its
// just-built state, fresh or reset (topo.Topology.Reset); a runner calls
// it at most once and installs its agents and switch logic on it.
type RunnerFunc func(build func() *topo.Topology, flows []workload.Flow, rc RunCtx) []workload.Result

// RunnerEntry is a registered protocol runner. The registry unifies the
// packet-level protocol systems (internal/core, internal/protocol/...)
// and the flow-level allocators (internal/flowsim) behind one interface:
// a spec targets either simulator purely by name.
type RunnerEntry struct {
	Name   string
	Doc    string
	Level  string             // "packet" or "flow"
	Params map[string]float64 // accepted parameters with defaults
	// Check, if set, validates the resolved parameter values at compile
	// time, so a value Make cannot honor is an error before any cell
	// runs rather than a failed cell.
	Check func(p map[string]float64) error
	// Make binds params and the cell's base seed into a RunnerFunc. The
	// returned func may be invoked multiple times (replicate averaging)
	// and must build fresh protocol state per invocation.
	Make func(p map[string]float64, seed int64) RunnerFunc
}

// MetricFunc reduces one run to the scalar a figure plots. flows is the
// offered flow set (metrics like FCT-vs-optimal need it).
type MetricFunc func(rs []workload.Result, flows []workload.Flow, p map[string]float64) float64

// MetricEntry is a registered metric.
type MetricEntry struct {
	Name   string
	Doc    string
	Params map[string]float64
	// Check, if set, validates the resolved parameter values at compile
	// time (see RunnerEntry.Check).
	Check func(p map[string]float64) error
	Fn    MetricFunc
	// Interval, if set, bounds Fn from the run's deadline tally so far:
	// lo <= Fn(results) <= hi, in the very floats Fn computes, for the
	// results as they stand and as they will stand at any later instant
	// of the run. A search probe over such a metric stops once the
	// interval no longer straddles the threshold (engine.value); a metric
	// without one is always run to the horizon.
	Interval func(t workload.Tally, p map[string]float64) (lo, hi float64)
	// Pair, if set, is a pair metric's value of the row's results and its
	// Ref runner's on the same flows (ProtoSpec.Ref); its Fn compares a
	// run with itself.
	Pair func(rs, ref []workload.Result, p map[string]float64) float64
	// Link, if set, makes a link metric of a packet-level run's link into
	// host p["host"]: it gets that link after the flows start and before
	// the engine runs, to attach its probes, and the func it returns gives
	// the cell's value once the engine stops, before the topology is reset.
	Link func(s *sim.Sim, l *netsim.Link, p map[string]float64) (read func(rs []workload.Result) float64)
}

// FlowGenEntry is a registered custom flow generator for hand-built flow
// sets the pattern/sizes machinery cannot express.
type FlowGenEntry struct {
	Name   string
	Doc    string
	Params map[string]float64
	// MinHosts is the smallest topology the generator can populate;
	// specs pairing it with fewer hosts fail at compile time.
	MinHosts int
	// Check, if set, validates the resolved parameter values at compile
	// time (see RunnerEntry.Check).
	Check func(p map[string]float64) error
	// Gen draws the flow set; hosts is the (possibly restricted)
	// topology host count.
	Gen func(p map[string]float64, hosts int, seed int64) []workload.Flow
}

// The decl methods declare each kind's table entries to params.NewRegistry.

func (e RunnerEntry) decl() params.Decl {
	return params.Decl{Name: e.Name, Params: e.Params, Check: e.Check}
}

func (e MetricEntry) decl() params.Decl {
	return params.Decl{Name: e.Name, Params: e.Params, Check: e.Check}
}

func (e FlowGenEntry) decl() params.Decl {
	return params.Decl{Name: e.Name, Params: e.Params, Check: e.Check}
}

// RunnerList returns the registered runners sorted by name.
func RunnerList() []RunnerEntry { return runners.List() }

// MetricList returns the registered metrics sorted by name.
func MetricList() []MetricEntry { return metrics.List() }

// FlowGenList returns the registered flow generators sorted by name.
func FlowGenList() []FlowGenEntry { return flowGens.List() }

// QdiscList re-exports the link-layer queue-discipline registry sorted
// by name, so commands can enumerate it without importing the engine
// directly.
func QdiscList() []netsim.QdiscEntry { return netsim.QdiscList() }
