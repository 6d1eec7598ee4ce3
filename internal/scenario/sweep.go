// The parallel sweep executor. Every grid scenario is a set of
// independent cell replicates — protocol × sweep point × seed — where each
// one runs on its own simulator and on a topology no other replicate holds
// at the same time (all RNGs in topo/workload/flowsim are instance-local,
// and a reused topology is reset first). Gather fans them out across a
// worker pool and reassembles results in deterministic input order, so a
// sweep's output is byte-identical at 1 worker and at N workers for a
// fixed seed; engine.run (run.go) turns the replicates into table rows.

package scenario

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// TrialSeedStride separates replicate base seeds so they cannot collide
// with the small +s offsets some scenarios add internally when averaging
// over a few generator seeds within one cell.
const TrialSeedStride = 1 << 16

// Gather evaluates fns concurrently on up to `workers` goroutines
// (0 means GOMAXPROCS) and returns their results in input order. A panic in
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

// summarize reduces one cell's replicates to mean ± standard error; the
// error is 0 for a single replicate.
func summarize(xs []float64) (mean, stderr float64) {
	n := float64(len(xs))
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	mean = sum / n
	if len(xs) < 2 {
		return mean, 0
	}
	ss := 0.0
	for _, x := range xs {
		d := x - mean
		ss += float64(d * d)
	}
	return mean, math.Sqrt(ss/(n-1)) / math.Sqrt(n)
}
