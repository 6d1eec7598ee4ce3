// The parallel sweep executor. Every grid scenario is a set of
// independent trials — protocol × sweep point × seed — where each trial
// runs on its own simulator and on a topology no other trial holds at the
// same time (all RNGs in topo/workload/flowsim are instance-local, and a
// reused topology is reset first). The executor fans those trials out
// across a worker pool and reassembles results in deterministic input
// order, so a sweep's output is byte-identical at 1 worker and at N
// workers for a fixed seed.

package scenario

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"pdq/internal/obsv"
)

// Trial is one independent sweep cell: given its base seed it builds a
// topology, runs a protocol to its horizon, and returns the scalar the
// figure plots. A Trial must not share mutable state with other trials.
type Trial func(seed int64) float64

// Stat aggregates one sweep point across Opts.Trials replicates.
type Stat struct {
	Mean   float64
	Stderr float64 // standard error of the mean; 0 for a single replicate
}

// TrialSeedStride separates replicate base seeds so they cannot collide
// with the small +s offsets some scenarios add internally when averaging
// over a few generator seeds within one cell.
const TrialSeedStride = 1 << 16

// Gather evaluates fns concurrently on up to `workers` goroutines
// (0 means GOMAXPROCS) and returns their results in input order. It is
// the executor's primitive; scenarios whose cells produce non-scalar
// results (e.g. paired per-flow result sets) use it directly. A panic in
// any fn is raised again on the caller's goroutine once every fn has
// returned — the lowest-indexed one's, as a serial run would raise.
func Gather[T any](workers int, fns []func() T) []T {
	out := make([]T, len(fns))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(fns) {
		workers = len(fns)
	}
	if workers <= 1 {
		for i, fn := range fns {
			out[i] = fn()
		}
		return out
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	first, firstPanic := len(fns), any(nil)
	run := func(i int) {
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if i < first {
					first, firstPanic = i, r
				}
				mu.Unlock()
			}
		}()
		out[i] = fns[i]()
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range idx {
				run(i)
			}
		}()
	}
	for i := range fns {
		idx <- i
	}
	close(idx)
	wg.Wait()
	if first < len(fns) {
		panic(firstPanic)
	}
	return out
}

// TrialError describes one failed replicate of a sweep trial: a panic
// inside the trial (a bug, an exhausted event budget, a watchdog
// interrupt) captured instead of crashing the sweep. The replicate's
// sample becomes NaN, so the failure stays visible in the aggregate.
type TrialError struct {
	Trial int    // index into the trials slice (row-major cell index in a grid)
	Rep   int    // replicate index within the trial
	Seed  int64  // the replicate's base seed
	Msg   string // the recovered panic value
}

// RunTrialsErr evaluates every trial across Opts.Parallel workers,
// replicating each one over Opts.Trials base seeds (o.BaseSeed(),
// o.BaseSeed()+stride, ...), and returns mean ± stderr per trial in input
// order. With Trials <= 1 each cell runs exactly once at o.BaseSeed(), so
// the resulting tables match a serial sweep byte for byte. Each replicate
// runs under a recover, so one panicking cell yields NaN plus a TrialError
// while every other cell completes — the executor's half of partial-table
// emission (DESIGN.md §11). Errors are reported in trial order regardless
// of which worker hit them.
func RunTrialsErr(o Opts, trials []Trial) ([]Stat, []TrialError) {
	k := o.trials()
	o.Progress.AddTotal(len(trials) * k)
	fns := make([]func() float64, 0, len(trials)*k)
	slots := make([]TrialError, len(trials)*k) // Msg == "" marks success
	for ti, tr := range trials {
		for r := 0; r < k; r++ {
			ti, r, tr, seed := ti, r, tr, o.seed()+int64(r)*TrialSeedStride
			slot := &slots[len(fns)]
			fns = append(fns, func() float64 { return runTrial(o.Progress, tr, seed, ti, r, slot) })
		}
	}
	samples := Gather(o.workers(), fns)
	out := make([]Stat, len(trials))
	for i := range trials {
		out[i] = summarize(samples[i*k : (i+1)*k])
	}
	var failed []TrialError
	for i := range slots {
		if slots[i].Msg != "" {
			failed = append(failed, slots[i])
		}
	}
	return out, failed
}

// runTrial executes one replicate, converting a panic into NaN plus a
// diagnostic in slot. Each replicate is one cell of the progress state
// machine: pending → running at entry, → done or failed at exit, so
// done+failed always reaches the announced total even on a partial
// table (p tolerates a nil receiver).
func runTrial(p *obsv.SweepStats, tr Trial, seed int64, ti, rep int, slot *TrialError) (v float64) {
	start := p.CellStart()
	defer func() {
		failed := false
		if r := recover(); r != nil {
			*slot = TrialError{Trial: ti, Rep: rep, Seed: seed, Msg: panicMsg(r)}
			v = math.NaN()
			failed = true
		}
		p.CellEnd(start, failed)
	}()
	return tr(seed)
}

// panicMsg renders a recovered panic value for a diagnostic row.
func panicMsg(r any) string {
	switch x := r.(type) {
	case error:
		return x.Error()
	case string:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}

// summarize reduces one cell's replicates to mean ± standard error.
func summarize(xs []float64) Stat {
	n := float64(len(xs))
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean := sum / n
	if len(xs) < 2 {
		return Stat{Mean: mean}
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	return Stat{Mean: mean, Stderr: math.Sqrt(ss/(n-1)) / math.Sqrt(n)}
}

// runGrid evaluates an nRows×nCols cell grid concurrently and returns
// the per-cell stats in row-major order, plus any captured per-replicate
// failures (TrialError.Trial is the row-major cell index).
func runGrid(o Opts, nRows, nCols int, cell func(row, col int, seed int64) float64) ([]Stat, []TrialError) {
	trials := make([]Trial, 0, nRows*nCols)
	for r := 0; r < nRows; r++ {
		for c := 0; c < nCols; c++ {
			r, c := r, c
			trials = append(trials, func(seed int64) float64 { return cell(r, c, seed) })
		}
	}
	return RunTrialsErr(o, trials)
}

// statRow converts one row's per-point stats into a table row, attaching
// stderr columns when the sweep ran multiple trials.
func statRow(label string, st []Stat, trials int) Row {
	row := Row{Label: label}
	for _, s := range st {
		row.Vals = append(row.Vals, s.Mean)
		if trials > 1 {
			row.Errs = append(row.Errs, s.Stderr)
		}
	}
	return row
}
