package scenario

import (
	"fmt"

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
// the scenario's run-level settings (Env), the plan's engine settings,
// and what belongs to this one run. The zero Cell means tracing is off
// and the runner must add no telemetry work to the simulation.
type RunCtx struct {
	Env

	// Horizon is how long to simulate. Shards is the resolved shard count
	// (DESIGN.md §12; <= 1 means the single engine — only shard-safe
	// packet runners act on it, everything else ignores it and stays
	// byte-identical) and Sched the resolved timer backend ("" for the
	// 4-ary heap, "wheel" for the hierarchical timer wheel).
	Horizon sim.Time
	Shards  int
	Sched   string

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
	// Decided reports whether the deadline tally has fixed it. A
	// single-engine runner calls it at every flow outcome and stops the
	// simulation at the first true (armVerdict); a runner that ignores it,
	// and any run without it, goes to the horizon.
	Decided func(workload.Tally) bool

	// inspect, when non-nil, sees a packet-level run's topology after the
	// run and before its engine hands its storage on: the last point at
	// which a test can read the engine's clock and queue, or resume it.
	inspect func(*topo.Topology)
}

// Env is the run-level settings every run of a scenario receives
// unchanged: Opts hands it to the engine (Opts.env) and the engine hands
// it to each runner inside RunCtx. None of it may shape a result.
type Env struct {
	// MaxEvents and Watchdog are the runaway-cell guards (Opts fields of
	// the same names); packet-level runners arm them around RunUntil.
	MaxEvents uint64
	Watchdog  func(interrupt func()) (stop func())

	// Obs, when non-nil, is the shared runtime aggregate (DESIGN.md §13):
	// packet-level runners attach per-engine instrument blocks and merge
	// them into it when the cell finishes (or, sharded, at barriers).
	// Clock is the observability plane's injected wall clock for shard
	// phase timing; the engine never reads a real clock itself.
	Obs   *obsv.Runtime
	Clock obsv.Clock
}

// RunnerFunc runs one protocol over a set of flows on a freshly built
// topology and returns per-flow results. The packet-level protocol
// systems keep state in topology links, so every run builds anew.
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
	// ShardSafe marks runners whose protocol state partitions cleanly
	// over the sharded engine (per-host agents, no global switch logic):
	// only these act on RunCtx.Shards. Informational here — the actual
	// gate is baked into the RunnerFunc by mkPacketShardable.
	ShardSafe bool
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
	Fn     MetricFunc
	// Interval, if set, bounds Fn from the run's deadline tally so far:
	// lo <= Fn(results) <= hi, in the very floats Fn computes, for the
	// results as they stand and as they will stand at any later instant
	// of the run. A search probe over such a metric stops once the
	// interval no longer straddles the threshold (engine.value); a metric
	// without one is always run to the horizon.
	Interval func(t workload.Tally, p map[string]float64) (lo, hi float64)
}

// AnalyticEntry is a registered closed-form baseline: a value computed
// from the flow set alone, without running a simulator (e.g. the fluid
// Optimal bound).
type AnalyticEntry struct {
	Name   string
	Doc    string
	Params map[string]float64
	Fn     func(flows []workload.Flow, p map[string]float64) float64
}

// DriverFunc is a registered custom scenario: trace/dynamics shapes that
// are not protocol×axis grids. p is the spec's (quick-resolved) Params.
type DriverFunc func(s *Spec, p map[string]float64, o Opts) (*Table, error)

// DriverEntry is a registered custom scenario driver.
type DriverEntry struct {
	Name   string
	Doc    string
	Params map[string]float64
	// Check, if set, validates the resolved parameter values before Fn
	// runs (see RunnerEntry.Check).
	Check func(p map[string]float64) error
	Fn    DriverFunc
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

var (
	runners   = params.NewRegistry[RunnerEntry]("runner")
	metrics   = params.NewRegistry[MetricEntry]("metric")
	analytics = params.NewRegistry[AnalyticEntry]("analytic")
	drivers   = params.NewRegistry[DriverEntry]("driver")
	flowGens  = params.NewRegistry[FlowGenEntry]("flow generator")
)

// RegisterRunner adds a protocol runner; duplicate names panic at init.
func RegisterRunner(e RunnerEntry) { runners.Register(e.Name, e.Params, e.Check, e) }

// RegisterMetric adds a metric; duplicate names panic at init.
func RegisterMetric(e MetricEntry) { metrics.Register(e.Name, e.Params, nil, e) }

// RegisterAnalytic adds an analytic baseline; duplicate names panic.
func RegisterAnalytic(e AnalyticEntry) { analytics.Register(e.Name, e.Params, nil, e) }

// RegisterDriver adds a custom scenario driver; duplicate names panic.
func RegisterDriver(e DriverEntry) { drivers.Register(e.Name, e.Params, e.Check, e) }

// RegisterFlowGen adds a custom flow generator; duplicate names panic.
func RegisterFlowGen(e FlowGenEntry) { flowGens.Register(e.Name, e.Params, e.Check, e) }

// RunnerList returns the registered runners sorted by name.
func RunnerList() []RunnerEntry { return runners.List() }

// MetricList returns the registered metrics sorted by name.
func MetricList() []MetricEntry { return metrics.List() }

// AnalyticList returns the registered analytics sorted by name.
func AnalyticList() []AnalyticEntry { return analytics.List() }

// DriverList returns the registered custom drivers sorted by name.
func DriverList() []DriverEntry { return drivers.List() }

// FlowGenList returns the registered flow generators sorted by name.
func FlowGenList() []FlowGenEntry { return flowGens.List() }

// QdiscList re-exports the link-layer queue-discipline registry sorted
// by name, so commands can enumerate it without importing the engine
// directly.
func QdiscList() []netsim.QdiscEntry { return netsim.QdiscList() }

// MakeRunner resolves a runner name and binds validated params and the
// base seed into a ready-to-call RunnerFunc.
func MakeRunner(name string, given map[string]float64, seed int64) (RunnerFunc, error) {
	e, p, err := runners.Resolve(name, given)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return e.Make(p, seed), nil
}
