package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"pdq/internal/scenario"
	"pdq/internal/trace"
)

// checks counts output checks and keeps what failed.
type checks struct {
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
}

// ok records one check; a false cond is a failure described by the rest.
func (c *checks) ok(cond bool, format string, args ...any) bool {
	c.Attempted++
	if !cond {
		c.Failed++
		if len(c.Failures) < 20 { // enough to diagnose, bounded in the file
			c.Failures = append(c.Failures, fmt.Sprintf(format, args...))
		}
	}
	return cond
}

// workloadResult is one workload's section of a result file.
type workloadResult struct {
	checks
	// TableDigest is the SHA-256 of the table bytes: two result files
	// with different digests simulated different statistics.
	TableDigest string             `json:"table_digest,omitempty"`
	Reps        int                `json:"reps,omitempty"`
	EndToEnd    map[string]summary `json:"end_to_end,omitempty"`
	PerLayer    map[string]summary `json:"per_layer,omitempty"`
}

// harness holds what every mode needs: where the checkout is, the built
// pdqsim, a scratch directory inside the checkout, and the run's knobs.
type harness struct {
	root    string
	bin     string
	tmp     string
	seed    int64
	seconds float64
	// smoke runs every workload once at its -quick form (the test's
	// pass): names and checks are exercised, numbers mean nothing.
	smoke bool
}

// buildPdqsim compiles cmd/pdqsim from the checkout into target.
func buildPdqsim(root, target string) error {
	cmd := exec.Command("go", "build", "-o", target, "./cmd/pdqsim")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/pdqsim: %w: %s", err, out)
	}
	return nil
}

// childRun is one pdqsim process, exec to exit.
type childRun struct {
	wall, cpu, rssMB float64
	stdout, stderr   []byte
	err              error
}

// child runs pdqsim with a scrubbed environment: GOMAXPROCS, and a HOME
// inside the scratch directory so nothing can resolve to the user's
// ~/.cache/pdqsim. Stdout is read to the end through a pipe.
func (h *harness) child(procs int, args ...string) childRun {
	var out, errb bytes.Buffer
	cmd := exec.Command(h.bin, args...)
	cmd.Env = []string{fmt.Sprintf("GOMAXPROCS=%d", procs), "HOME=" + h.tmp}
	cmd.Stdout, cmd.Stderr = &out, &errb
	start := time.Now()
	err := cmd.Run()
	r := childRun{wall: time.Since(start).Seconds(), stdout: out.Bytes(), stderr: errb.Bytes(), err: err}
	if ps := cmd.ProcessState; ps != nil {
		r.cpu = (ps.UserTime() + ps.SystemTime()).Seconds()
		if ru, ok := ps.SysUsage().(*syscall.Rusage); ok {
			r.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
		}
	}
	return r
}

// procsFor is the child's GOMAXPROCS: 2 for the serial workloads (one
// simulating thread plus the collector), P for the parallel ones.
func procsFor(w *workloadDef) int { return max(2, w.workersFor()) }

// e2e is one workload's end-to-end measurement in progress.
type e2e struct {
	w      *workloadDef
	res    *workloadResult
	dir    string // inputs of the latest set-up
	setups []float64
	wall   []float64
	cpu    []float64
	rss    []float64
	first  []byte // table bytes every later output must equal
}

// setUp materialises the workload's inputs in a fresh directory and makes
// one untimed warm-up invocation; for figures-warm-cache that invocation
// is the cold pass that populates the cache. The whole of it is one
// setup_s sample. `go build` is not part of it: toolchain cache state is
// not a property of the program (cmd.build_s reports it).
func (h *harness) setUp(e *e2e) {
	start := time.Now()
	dir, err := os.MkdirTemp(h.tmp, e.w.name+"-")
	if e.res.ok(err == nil, "set-up: %v", err) {
		err = e.w.materialize(h.root, dir)
		e.res.ok(err == nil, "set-up: %v", err)
	}
	r := h.child(procsFor(e.w), e.w.args(dir, h.seed, h.smoke)...)
	e.setups = append(e.setups, time.Since(start).Seconds())
	if e.res.ok(r.err == nil, "warm-up run: %v: %s", r.err, r.stderr) {
		e.sameTable(r.stdout, "warm-up") // for the warm cache this is the cold pass
	}
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
	e.dir = dir
}

// sameTable checks table bytes against the first ones this workload
// produced.
func (e *e2e) sameTable(got []byte, what string) {
	if e.first == nil {
		e.first = got
		return
	}
	e.res.ok(bytes.Equal(got, e.first), "%s: table bytes differ from the first run's", what)
}

// rep is one timed repetition.
func (h *harness) rep(e *e2e) {
	r := h.child(procsFor(e.w), e.w.args(e.dir, h.seed, h.smoke)...)
	e.wall = append(e.wall, r.wall)
	e.cpu = append(e.cpu, r.cpu)
	e.rss = append(e.rss, r.rssMB)
	if e.res.ok(r.err == nil, "repetition %d: %v: %s", len(e.wall), r.err, r.stderr) {
		e.sameTable(r.stdout, fmt.Sprintf("repetition %d", len(e.wall)))
	}
}

// inProcess runs the workload once through the calls cmd/pdqsim makes,
// with the garbage collector settled before, and reads the allocation
// counters around it. Its tables must equal the child's byte for byte.
func (h *harness) inProcess(e *e2e) (allocMB, mallocsM float64) {
	var o scenario.Opts
	if e.w.warmCache {
		c, err := trace.NewCache(filepath.Join(e.dir, "cache"))
		if !e.res.ok(err == nil, "opening warm cache: %v", err) {
			return 0, 0
		}
		o.Cache = c
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	ts, err := e.w.runInProcess(h.root, h.seed, h.smoke, o)
	runtime.ReadMemStats(&after)
	allocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	mallocsM = float64(after.Mallocs-before.Mallocs) / 1e6
	if !e.res.ok(err == nil, "in-process run: %v", err) {
		return allocMB, mallocsM
	}
	bad, cells := badCells(ts)
	e.res.Attempted += cells
	e.res.Failed += bad
	if bad > 0 {
		e.res.Failures = append(e.res.Failures, fmt.Sprintf("%d of %d cells failed or are not finite", bad, cells))
	}
	enc, err := encodeTables(ts)
	if e.res.ok(err == nil, "encoding tables: %v", err) {
		e.res.ok(bytes.Equal(enc, e.first), "in-process tables differ from the child's")
	}
	if e.w.shape != nil && bad == 0 {
		violated := e.w.shape(ts)
		e.res.ok(len(violated) == 0, "shape: %v", violated)
	}
	return allocMB, mallocsM
}

// endToEnd measures the given workloads: set-up (three times for a median,
// fewer once it has cost a third of the run's seconds), timed repetitions interleaved round-robin so a
// slow minute of a shared host spreads over all of them, one in-process
// pass, and the output checks.
func (h *harness) endToEnd(ws []*workloadDef) map[string]*workloadResult {
	out := map[string]*workloadResult{}
	var es []*e2e
	for _, w := range ws {
		e := &e2e{w: w, res: &workloadResult{}}
		out[w.name] = e.res
		es = append(es, e)
		spent := 0.0
		for n := 0; n < 3; n++ {
			if n > 0 && (h.smoke || spent >= h.seconds/3) {
				break
			}
			h.setUp(e)
			spent += e.setups[n]
		}
	}
	const minReps = 3
	for active := true; active; {
		active = false
		for _, e := range es {
			n := len(e.wall)
			spent, last := 0.0, 0.0
			for _, w := range e.wall {
				spent, last = spent+w, w
			}
			more := n < minReps || spent+last/2 < h.seconds
			if h.smoke {
				more = n < 1
			}
			if more {
				h.rep(e)
				active = true
			}
		}
	}
	for _, e := range es {
		allocMB, mallocsM := h.inProcess(e)
		os.RemoveAll(e.dir)
		sum := sha256.Sum256(e.first)
		e.res.TableDigest = hex.EncodeToString(sum[:])
		e.res.Reps = len(e.wall)
		e.res.EndToEnd = map[string]summary{
			"setup_s":     summarize("s", e.setups),
			"wall_s":      summarize("s", e.wall),
			"cpu_s":       summarize("s", e.cpu),
			"peak_rss_mb": lowerQuartile("MB", e.rss),
			"alloc_mb":    scalar("MB", allocMB),
			"mallocs_m":   scalar("1e6", mallocsM),
		}
		// ok_share is failed_share turned over so that it is never 0:
		// the share of cells and output checks that held.
		e.res.EndToEnd["ok_share"] = scalar("ratio",
			float64(e.res.Attempted-e.res.Failed)/float64(e.res.Attempted))
	}
	return out
}
