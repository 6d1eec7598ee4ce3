// Command benchmark is the repository's performance record: six named
// workloads through the built pdqsim binary (seven end-to-end metrics
// each), a per-layer kernel suite over every module's public functions,
// and one traced, hand-driven cell per workload. README.md has the layer
// map; BENCHMARK.json at the checkout root names every metric.
//
//	bash benchmark/run.sh                                   # whole suite, results under benchmark/out/
//	bash benchmark/run.sh -workload pdq-tree -seed 3 -seconds 10 -trace 0
//	bash benchmark/run.sh -compare A.json B.json
//	bash benchmark/run.sh -calibrate 5
//	bash benchmark/run.sh -manifest > BENCHMARK.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// resultFile is what a run stores and -compare reads.
type resultFile struct {
	Env       environment                `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workloadName  = flag.String("workload", "all", "workload to run, or all")
		seed          = flag.Int64("seed", 1, "workload seed; reaches pdqsim only as -seed (see README, Seeds)")
		seconds       = flag.Float64("seconds", 24, "seconds of timed repetitions per workload")
		traceMode     = flag.Int("trace", -1, "0 = end-to-end metrics, 1 = per-layer metrics; with -workload <name> the last stdout line is the contract's JSON object")
		outPath       = flag.String("out", "", "result file (default benchmark/out/results-seed<seed>.json)")
		compare       = flag.Bool("compare", false, "compare two result files: -compare A.json B.json")
		calibrate     = flag.Int("calibrate", 0, "run the end-to-end suite N times on seeds 1..N and write the bounds into BENCHMARK.json")
		printManifest = flag.Bool("manifest", false, "print BENCHMARK.json as generated from the metric tables")
	)
	flag.Parse()
	if *printManifest {
		os.Stdout.Write(buildManifest(nil).encode())
		return 0
	}
	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fail(errors.New("-compare needs two result files"))
		}
		return compareFiles(root, flag.Arg(0), flag.Arg(1))
	}
	ws := workloads
	if *workloadName != "all" {
		w := findWorkload(*workloadName)
		if w == nil {
			return fail(fmt.Errorf("unknown workload %q", *workloadName))
		}
		ws = []*workloadDef{w}
	}
	if *traceMode < -1 || *traceMode > 1 || *seconds <= 0 {
		return fail(errors.New("-trace is 0 or 1, -seconds is positive"))
	}

	// One process, never more threads than the widest workload uses.
	runtime.GOMAXPROCS(max(2, workers()))
	h := &harness{root: root, seed: *seed, seconds: *seconds,
		bin: filepath.Join(root, ".bench_build", "bin", "pdqsim")}
	if err := buildPdqsim(root, h.bin); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build", "tmp"), 0o755); err != nil {
		return fail(err)
	}
	if h.tmp, err = os.MkdirTemp(filepath.Join(root, ".bench_build", "tmp"), "run-"); err != nil {
		return fail(err)
	}
	defer os.RemoveAll(h.tmp)

	if *calibrate > 0 {
		return h.calibrate(*calibrate)
	}

	start := time.Now()
	file := resultFile{Env: newEnvironment(root, *seed, *seconds), Workloads: map[string]*workloadResult{}}
	if *traceMode != 1 {
		file.Workloads = h.endToEnd(ws)
	}
	if *traceMode != 0 {
		for name, res := range h.traced(ws) {
			if prev := file.Workloads[name]; prev != nil {
				prev.PerLayer = res.PerLayer
				prev.merge(res.checks)
			} else {
				file.Workloads[name] = res
			}
		}
	}
	own := 1
	for _, w := range ws {
		own = max(own, w.workersFor())
	}
	file.Env.finish(own)

	path := *outPath
	if path == "" {
		path = filepath.Join(root, "benchmark", "out", fmt.Sprintf("results-seed%d.json", *seed))
		if len(ws) == 1 && *traceMode >= 0 {
			path = filepath.Join(root, "benchmark", "out",
				fmt.Sprintf("%s-trace%d-seed%d.json", ws[0].name, *traceMode, *seed))
		}
	}
	if err := writeJSON(path, file); err != nil {
		return fail(err)
	}
	printResults(file)
	fmt.Printf("# %s in %.1fs\n", path, time.Since(start).Seconds())

	failed := 0
	for _, r := range file.Workloads {
		failed += r.Failed
		for _, f := range r.Failures {
			fmt.Fprintln(os.Stderr, "benchmark: check failed:", f)
		}
	}
	if len(ws) == 1 && *traceMode >= 0 {
		// The contract's run: the result object is the last line, and a
		// failed check is reported in it, not by the exit status.
		fmt.Println(contractLine(file.Workloads[ws[0].name], *traceMode))
		return 0
	}
	if failed > 0 {
		return 1
	}
	return 0
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

// findRoot walks up from the working directory to the checkout root: the
// directory holding the module's go.mod, cmd/pdqsim and this benchmark.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if isDir(filepath.Join(dir, "benchmark", "workloads")) && isDir(filepath.Join(dir, "cmd", "pdqsim")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside a checkout: no directory above holds cmd/pdqsim and benchmark/workloads")
		}
		dir = parent
	}
}

func isDir(p string) bool {
	st, err := os.Stat(p)
	return err == nil && st.IsDir()
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func (r *workloadResult) merge(c checks) {
	r.Attempted += c.Attempted
	r.Failed += c.Failed
	r.Failures = append(r.Failures, c.Failures...)
}

// traced makes the traced run of each workload: the kernel suite (once),
// the workload's sweep counters and ratios, and its hand-driven cell,
// whose spans go to benchmark/out/trace-<workload>.json.
func (h *harness) traced(ws []*workloadDef) map[string]*workloadResult {
	batch := time.Duration(h.seconds / 400 * float64(time.Second))
	if h.smoke {
		batch = time.Millisecond
	}
	suite := &kernels{h: h, batch: batch, out: map[string]summary{}}
	suite.common()
	out := map[string]*workloadResult{}
	for _, w := range ws {
		k := &kernels{h: h, batch: batch, out: map[string]summary{}, checks: suite.checks}
		for name, v := range suite.out {
			k.out[name] = v
		}
		k.wholeWorkload(w)
		spans := k.cell(w)
		if spans != nil {
			path := filepath.Join(h.root, "benchmark", "out", "trace-"+w.name+".json")
			k.ok(writeJSON(path, spans) == nil, "writing %s", path)
		}
		out[w.name] = &workloadResult{checks: k.checks, PerLayer: k.out}
	}
	return out
}

// printResults prints every metric by name with its unit, one row each.
func printResults(f resultFile) {
	names := make([]string, 0, len(f.Workloads))
	for n := range f.Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r := f.Workloads[n]
		fmt.Printf("== %s: %d checks, %d failed", n, r.Attempted, r.Failed)
		if r.Reps > 0 {
			fmt.Printf(", R = %d, table %.12s", r.Reps, r.TableDigest)
		}
		fmt.Println()
		for _, d := range endToEnd {
			if s, ok := r.EndToEnd[d.Name]; ok {
				fmt.Printf("%-36s %14.6g %-6s", d.Name, s.Value, s.Unit)
				if s.N > 1 {
					fmt.Printf(" %s of n=%d [%.6g %.6g %.6g %.6g %.6g]", s.Stat, s.N, s.Min, s.Q1, s.Median, s.Q3, s.Max)
				}
				fmt.Println()
			}
		}
		for _, d := range perLayer {
			if s, ok := r.PerLayer[d.Name]; ok {
				fmt.Printf("%-36s %14.6g %s\n", d.Name, s.Value, s.Unit)
			}
		}
	}
}

// contractLine renders the one-object result of a contract run.
func contractLine(r *workloadResult, traceMode int) string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Failed == 0, r.Attempted, r.Failed, map[string]value{}}
	src := r.EndToEnd
	if traceMode == 1 {
		src = r.PerLayer
	}
	for name, s := range src {
		line.Metrics[name] = value{s.Value, s.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // a NaN would land here; every metric is a measured finite number
	}
	return string(b)
}
