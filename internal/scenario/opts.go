// Package scenario is the declarative experiment layer: a JSON-round-
// trippable Spec names a topology, a workload, a protocol set, a sweep
// axis and a metric — all resolved through name-keyed registries — and
// one generic Run engine executes it on the parallel sweep executor.
// Every figure of the paper's evaluation (internal/exp) is such a spec,
// and new scenarios (examples/scenarios/*.json) need no new Go code.
package scenario

import (
	"runtime"

	"pdq/internal/obsv"
	"pdq/internal/trace"
)

// DefaultSeed is the base RNG seed used when Opts.Seed is zero. Zero is
// the single documented sentinel for "use the default seed": the sweep
// executor and the pdqsim -seed flag resolve it through Opts.BaseSeed, so
// Opts{} and Opts{Seed: DefaultSeed} are byte-identical.
const DefaultSeed int64 = 1

// Opts controls experiment scale and sweep execution.
type Opts struct {
	Quick    bool  // shrink sweeps for benchmarks/tests
	Seed     int64 // base RNG seed; 0 is a sentinel for DefaultSeed
	Parallel int   // sweep worker count; 0 means GOMAXPROCS, 1 means serial
	Trials   int   // replicates per sweep point (mean ± stderr); <=1 means one

	// Trace, when non-nil, captures telemetry (per-flow records, link
	// probes) from every simulated cell. Tracing disables the cell cache:
	// a cache hit skips the simulation that would produce the records.
	Trace *trace.Trace

	// Cache, when non-nil, memoizes grid-cell results content-addressed
	// by their resolved spec material, seed and engine version salt, so
	// re-running a sweep only recomputes cells whose inputs changed. Every
	// cell reads and writes its own key.
	Cache *trace.Cache

	// MaxEvents bounds each packet-level simulation's event count; it is a
	// packet-engine budget only — flow-level cells step a clock with no
	// events and are bounded by their horizon. A cell exceeding it fails
	// with a diagnostic instead of running away; the budget is
	// deterministic, so a tripping cell trips identically at any worker
	// count. 0 = unlimited.
	MaxEvents uint64

	// Watchdog, when non-nil, arms a wall-clock limit around each
	// simulated cell, packet or flow level. The command layer injects the
	// factory (the engine never reads a wall clock); it receives the
	// cell's interrupt function and returns a stop function the runner
	// defers. An interrupted cell yields NaN plus a diagnostic; wall-clock
	// trips are inherently nondeterministic, a safety valve, not a result.
	Watchdog func(interrupt func()) (stop func())

	// Shards and Sched are accepted and ignored: every cell runs on one
	// heap engine. They stay only because the benchmark harness still
	// sets them, and never reach a plan or a cache key; they go when the
	// harness stops setting them.
	Shards int
	Sched  string

	// Obs, when non-nil, is the process observability plane (DESIGN.md
	// §13): Run registers the scenario as a sweep run on it and hands the
	// run every cell's finished record. Records never feed back into
	// results — tables are byte-identical with Obs set or nil.
	Obs *obsv.Observer

	// Progress is the sweep-run stats handle cells report to. Run derives
	// it from Obs (one run per scenario). Nil disables cell tracking.
	Progress *obsv.SweepStats
}

// BaseSeed resolves the Seed sentinel: 0 means DefaultSeed.
func (o Opts) BaseSeed() int64 {
	if o.Seed == 0 {
		return DefaultSeed
	}
	return o.Seed
}

// workers resolves Opts.Parallel: 0 means one worker per core.
func (o Opts) workers() int {
	if o.Parallel <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Parallel
}

// trials resolves Opts.Trials: anything below 1 means a single replicate.
func (o Opts) trials() int {
	if o.Trials <= 1 {
		return 1
	}
	return o.Trials
}
