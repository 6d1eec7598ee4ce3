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
// the single documented sentinel for "use the default seed": the figure
// drivers, the sweep executor and the pdqsim -seed flag all resolve it
// through Opts.BaseSeed, so Opts{} and Opts{Seed: DefaultSeed} are
// byte-identical.
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
	// re-running a sweep only recomputes cells whose inputs changed.
	// Custom drivers (non-grid scenarios) always recompute.
	Cache *trace.Cache

	// MaxEvents bounds each simulated cell's event count (packet engine
	// only — the fluid simulator is horizon-bounded by construction). A
	// cell exceeding it fails with a diagnostic instead of running away;
	// the budget is deterministic, so a tripping cell trips identically at
	// any worker count. 0 = unlimited.
	MaxEvents uint64

	// Watchdog, when non-nil, arms a wall-clock limit around each
	// simulated cell. The factory is injected by the command layer — the
	// engine itself never reads a wall clock — and receives the cell's
	// interrupt function, returning a stop function the runner defers.
	// An interrupted cell yields NaN plus a diagnostic; wall-clock trips
	// are inherently nondeterministic, a safety valve, not a result.
	Watchdog func(interrupt func()) (stop func())

	// Shards overrides the spec's shard count (DESIGN.md §12) when > 0:
	// each packet-level cell with a shard-safe runner partitions its
	// simulation over this many parallel event-loop shards.
	Shards int

	// Sched overrides the spec's timer backend when non-empty: "heap"
	// (the default 4-ary heap) or "wheel" (the hierarchical timer wheel).
	Sched string

	// Obs, when non-nil, is the process observability plane (DESIGN.md
	// §13): Run registers the scenario as a sweep run on it, cells report
	// their state machine to it, and simulated engines merge event-loop
	// counters into its Runtime aggregate. Metrics never feed back into
	// results — tables are byte-identical with Obs set or nil.
	Obs *obsv.Observer

	// Progress is the sweep-run stats handle cells report to. Run derives
	// it from Obs (one run per scenario); callers driving RunTrials or
	// Gather directly may set it themselves. Nil disables cell tracking.
	Progress *obsv.SweepStats
}

// BaseSeed resolves the Seed sentinel: 0 means DefaultSeed.
func (o Opts) BaseSeed() int64 {
	if o.Seed == 0 {
		return DefaultSeed
	}
	return o.Seed
}

// env extracts the settings every run of the scenario receives.
func (o Opts) env() Env {
	env := Env{MaxEvents: o.MaxEvents, Watchdog: o.Watchdog}
	if o.Obs != nil {
		env.Obs, env.Clock = o.Obs.Runtime, o.Obs.Clock
	}
	return env
}

// seed is the internal shorthand for BaseSeed.
func (o Opts) seed() int64 { return o.BaseSeed() }

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
