// Command pdqsim regenerates the PDQ paper's evaluation figures and runs
// declarative scenarios.
//
// Usage:
//
//	pdqsim -list
//	pdqsim -exp fig3a [-seed 7]
//	pdqsim -exp all -quick
//	pdqsim -exp all -quick -parallel 8 -trials 5 -json
//	pdqsim -scenario examples/scenarios/incast.json -quick
//	pdqsim -scenario examples/scenarios/incast.json -trace flows.jsonl -probe probes.csv
//	pdqsim -exp all -quick -cache
//	pdqsim -exp all -progress -metrics-out metrics.json
//	pdqsim -exp fig3a -http :9090 -http-linger 30s
//	pdqsim -exp fig5a -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//	pdqsim -dump-scenario fig3a
//
// -exp and -scenario each name a list of specs (one figure, all 25, or
// one file), and every spec takes the same path: scenario.Run, then the
// tables, telemetry, cache report and exit status. Giving both is a
// usage error. -list prints the experiments and then every registry a
// spec can name: topologies, patterns, size distributions, flow
// generators, protocol runners, metrics and queue disciplines.
//
// Each experiment prints the same rows/series the paper reports (see
// DESIGN.md §6–§8 for how the figure specs, the scenario layer and the
// telemetry plane are organized). Sweeps fan out across -parallel
// workers; -trials replicates every sweep point across that many seeds
// and reports mean ± stderr; -json emits machine-readable tables for
// downstream tooling. Exit status: 0 ok, 1 runtime error, 2 usage error,
// 3 partial table.
//
// -trace writes one JSON line per completed/terminated flow (id, size,
// class, FCT, deadline outcome, bytes acked, retransmits, preemptions),
// tagged by scenario/row/column/seed/run. Records are cut from each
// finished run in completion order; a run keeps its newest 65 536 and
// the log counts any dropped. -probe writes a CSV time series of every
// link's queue depth and utilization plus the active-flow count, sampled
// each -probe-stride-us (at least 0.001, else exit 2). -fault-log writes
// the injected fault transitions; a simulation that several cells read
// is captured once.
//
// -cache (or -cache-dir) memoizes grid-cell results, content-addressed by
// their resolved spec material, seed and engine version, so re-running a
// sweep recomputes only what changed and a warm rerun simulates nothing;
// hits reproduce the recomputed output byte for byte. Tracing bypasses
// the cache.
//
// The observability plane (DESIGN.md §13) watches a run without
// perturbing it: -progress renders a live stderr line (cells done/total,
// failures, cache hits, throughput, ETA); -http serves, while the run
// executes, Prometheus text on /metrics, per-run sweep progress JSON on
// /runs, the -metrics-out document on /metrics.json, and under
// /debug/pprof/ a plain-text index, cmdline, profile?seconds=N (CPU),
// trace?seconds=N and every runtime/pprof profile by name (heap, allocs,
// goroutine, ...; ?debug=N for text), through a minimal HTTP/1.1
// responder (http.go) rather than net/http (-http-linger holds the server
// open afterwards for end-of-run scrapes); -metrics-out writes a JSON
// snapshot of every counter when the run finishes. -cpuprofile and
// -memprofile capture standard runtime profiles; the heap profile records
// every allocation, not a sample. Together with -exp NAME -quick they
// profile one figure's path. Enabled or not, tables
// are byte-identical — the engines only ever touch plain in-memory
// counters, merged at quiescent points. Diagnostics go through log/slog
// (-log-level), each record tagged with a per-invocation run ID.
//
// The first SIGINT or SIGTERM interrupts the running cells, starts no
// new simulation and skips the specs not begun, then prints the partial
// tables, writes -metrics-out and the profiles, closes -http without
// waiting out -http-linger and exits 3; a second signal exits at once
// (interrupt.go).
//
// -scenario runs a JSON scenario spec (see README "Declarative
// scenarios" for the schema): the paper's figures are such specs too, so
// -dump-scenario prints any figure's spec as a starting template.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime"
	"time"

	"pdq/internal/exp"
	"pdq/internal/scenario"
	"pdq/internal/topo"
	"pdq/internal/trace"
	"pdq/internal/workload"
)

func main() {
	var (
		name        = flag.String("exp", "", "figure to reproduce (fig1, fig3a, ..., fig12) or 'all'")
		scenFile    = flag.String("scenario", "", "run a declarative scenario from a JSON spec file")
		dumpScen    = flag.String("dump-scenario", "", "print a figure's scenario spec as JSON (template for new scenarios)")
		quick       = flag.Bool("quick", false, "run reduced sweeps (seconds instead of minutes)")
		seed        = flag.Int64("seed", 0, "base RNG seed (0 = default seed 1)")
		parallel    = flag.Int("parallel", 0, "sweep worker count (0 = one per core, 1 = serial)")
		trials      = flag.Int("trials", 1, "replicates per sweep point (reports mean ± stderr)")
		jsonOut     = flag.Bool("json", false, "emit tables as JSON instead of text")
		traceOut    = flag.String("trace", "", "write per-flow completion records to this JSONL file")
		probeOut    = flag.String("probe", "", "write link queue/utilization time series to this CSV file")
		probeStride = flag.Float64("probe-stride-us", 100, "probe sampling period in microseconds")
		faultOut    = flag.String("fault-log", "", "write injected fault/recovery transitions to this JSONL file")
		maxEvents   = flag.Uint64("max-events", 0, "per-cell packet-engine event budget (0 = unlimited); an exceeding cell fails with a diagnostic; flow-level cells are bounded by their horizon")
		cellTimeout = flag.Float64("cell-timeout-ms", 0, "per-cell wall-clock limit in ms (0 = none); a timed-out cell fails with a diagnostic")
		cacheOn     = flag.Bool("cache", false, "memoize sweep cells under the default cache dir (~/.cache/pdqsim)")
		cacheDir    = flag.String("cache-dir", "", "memoize sweep cells under this directory (implies -cache)")
		progressOn  = flag.Bool("progress", false, "render a live progress line on stderr (cells done/total, failures, cache hits, ETA)")
		httpAddr    = flag.String("http", "", "serve /metrics (Prometheus text), /runs (JSON sweep progress), /metrics.json and /debug/pprof/ (index, cmdline, profile, trace, named profiles) on this address during the run")
		httpLinger  = flag.Duration("http-linger", 0, "keep the -http server alive this long after the run finishes (end-of-run scrapes)")
		metricsOut  = flag.String("metrics-out", "", "write an end-of-run JSON metrics snapshot to this file")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write an exact heap profile to this file: every allocation is recorded, not a 512 KiB sample")
		logLevel    = flag.String("log-level", "info", "structured-log threshold: debug, info, warn or error")
		list        = flag.Bool("list", false, "list the experiments and every registry a scenario spec can name")
	)
	flag.Parse()
	if *memProfile != "" {
		// Record every allocation, so the profile's counts are the run's
		// malloc counts rather than a sample of them. It must be set
		// before the work it is to see.
		runtime.MemProfileRate = 1
	}

	logger, err := newLogger(os.Stderr, *logLevel, newRunID())
	if err != nil {
		usage("%v", err)
	}
	tr := trace.New(*traceOut != "", *probeOut != "")
	if err := tr.SetStrideMicros(*probeStride); err != nil {
		usage("-probe-stride-us: %v", err)
	}

	if *list {
		listExperiments()
		listRegistries()
		return
	}
	if *dumpScen != "" {
		sf, ok := exp.Specs[*dumpScen]
		if !ok {
			usage("unknown experiment %q (try -list)", *dumpScen)
		}
		writeJSON(logger, sf())
		return
	}
	specs := loadSpecs(logger, *name, *scenFile)
	intr := watchInterrupts(logger)

	obs, finishObs := setupObsv(obsvConfig{
		Progress:   *progressOn,
		HTTPAddr:   *httpAddr,
		HTTPLinger: *httpLinger,
		MetricsOut: *metricsOut,
		CPUProfile: *cpuProfile,
		MemProfile: *memProfile,
	}, intr, logger)

	opts := scenario.Opts{Quick: *quick, Seed: *seed, Parallel: *parallel, Trials: *trials,
		MaxEvents: *maxEvents, Obs: obs}
	var timeout func(interrupt func()) (stop func())
	if *cellTimeout > 0 {
		// The engine never reads a wall clock (pdqlint enforces it); the
		// watchdog factory injects one from out here. Each cell arms a
		// timer that fires its interrupt, and stops it on completion.
		d := time.Duration(*cellTimeout * float64(time.Millisecond))
		timeout = func(interrupt func()) (stop func()) {
			tm := time.AfterFunc(d, interrupt)
			return func() { tm.Stop() }
		}
	}
	opts.Watchdog = intr.watchdog(timeout)

	if *traceOut != "" || *probeOut != "" || *faultOut != "" {
		opts.Trace = tr
	}
	var cache *trace.Cache
	if *cacheOn || *cacheDir != "" {
		dir := *cacheDir
		if dir == "" {
			if dir, err = trace.DefaultCacheDir(); err != nil {
				fail(logger, err)
			}
		}
		if cache, err = trace.NewCache(dir); err != nil {
			fail(logger, err)
		}
		if opts.Trace != nil {
			logger.Warn("tracing bypasses the sweep cache (hits would skip the runs that emit records)")
		}
		opts.Cache = cache
	}

	tables := runSpecs(logger, specs, opts, intr, !*jsonOut)
	if *jsonOut {
		writeJSON(logger, tables)
	}
	writeTelemetry(logger, opts.Trace, *traceOut, *probeOut, *faultOut)
	reportCache(logger, cache)
	finishObs()
	exitPartial(logger, tables, intr.fired())
}

// runSpecs runs specs until an interrupt, printing each table when text is
// set, and returns the tables made: not nil, so -json prints at least [].
func runSpecs(log *slog.Logger, specs []*scenario.Spec, opts scenario.Opts, intr *interrupter, text bool) []*scenario.Table {
	tables := make([]*scenario.Table, 0, len(specs))
	for i, spec := range specs {
		if intr.fired() {
			log.Warn("interrupted: specs not run", "skipped", len(specs)-i)
			break
		}
		start := time.Now()
		table, err := scenario.Run(spec, opts)
		if err != nil {
			fail(log, err)
		}
		tables = append(tables, table)
		if text {
			fmt.Println(table)
			fmt.Printf("(%s in %v)\n\n", spec.Name, time.Since(start).Round(time.Millisecond))
		}
	}
	return tables
}

// loadSpecs returns the specs the command line names: one figure or all
// of them (-exp), or a scenario file (-scenario). Naming neither, or
// both, is a usage error.
func loadSpecs(log *slog.Logger, name, file string) []*scenario.Spec {
	switch {
	case name != "" && file != "":
		usage("-exp and -scenario each name what to run; give one")
	case file != "":
		data, err := os.ReadFile(file)
		if err != nil {
			fail(log, err)
		}
		spec, err := scenario.Load(data)
		if err != nil {
			fail(log, err)
		}
		return []*scenario.Spec{spec}
	case name == "":
		listExperiments()
		os.Exit(2)
	}
	names := []string{name}
	if name == "all" {
		names = exp.FigureNames()
	}
	specs := make([]*scenario.Spec, 0, len(names))
	for _, n := range names {
		sf, ok := exp.Specs[n]
		if !ok {
			usage("unknown experiment %q (try -list)", n)
		}
		specs = append(specs, sf())
	}
	return specs
}

// writeJSON prints v as indented JSON.
func writeJSON(log *slog.Logger, v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fail(log, err)
	}
}

// usage reports a command-line error on one line and exits 2.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "pdqsim: "+format+"\n", args...)
	os.Exit(2)
}

// exitPartial exits with status 3 when any table carries failed cells or
// the run was interrupted. It runs after every table, telemetry file and
// metrics snapshot is emitted, so the partial results are on disk and CI
// can both upload and flag them.
func exitPartial(log *slog.Logger, tables []*scenario.Table, interrupted bool) {
	n := 0
	for _, t := range tables {
		n += len(t.Errors)
	}
	if n == 0 && !interrupted {
		return
	}
	msg := "cell replicates failed; tables are partial (failed cells are NaN)"
	if interrupted {
		msg = "interrupted; tables are partial (failed cells are NaN)"
	}
	log.Warn(msg, "failed", n)
	os.Exit(3)
}

// writeTelemetry exports the captured flow records, probe series and
// fault transitions.
func writeTelemetry(log *slog.Logger, tr *trace.Trace, traceOut, probeOut, faultOut string) {
	if tr == nil {
		return
	}
	write := func(path string, emit func(io.Writer) error, what string, n int) {
		if path == "" {
			return
		}
		f, err := os.Create(path)
		if err != nil {
			fail(log, err)
		}
		err = emit(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fail(log, fmt.Errorf("writing %s: %w", path, err))
		}
		log.Info("wrote telemetry", "kind", what, "records", n, "path", path)
	}
	flows, dropped, samples, faults := 0, 0, 0, 0
	for _, ct := range tr.Cells() {
		flows += len(ct.Flows)
		dropped += ct.Dropped
		for _, s := range ct.Probes {
			samples += len(s.Vals)
		}
		faults += len(ct.Faults)
	}
	if dropped > 0 {
		log.Warn("flow records past the per-cell limit dropped, oldest first; trace a smaller run to keep them all",
			"dropped", dropped, "limit", trace.MaxFlowRecords)
	}
	write(traceOut, tr.WriteFlows, "flow records", flows)
	write(probeOut, tr.WriteProbes, "probe samples", samples)
	write(faultOut, tr.WriteFaults, "fault transitions", faults)
}

// reportCache logs the cache's hit/miss balance for the run.
func reportCache(log *slog.Logger, c *trace.Cache) {
	if c == nil {
		return
	}
	args := []any{"dir", c.Dir(), "hits", c.Hits(), "misses", c.Misses()}
	if e := c.Errors(); e > 0 {
		args = append(args, "recomputed", e)
	}
	log.Info("cache report", args...)
}

// listExperiments prints the figure registry in sorted order.
func listExperiments() {
	fmt.Println("available experiments:")
	for _, n := range exp.FigureNames() {
		fmt.Printf("  %s\n", n)
	}
}

// listRegistries prints the scenario vocabulary: what a spec can name.
// Every registry lists sorted and params marshal with sorted keys, so
// repeated runs are byte-identical; CI diffs two of them.
func listRegistries() {
	entry := func(name, doc string, params map[string]float64) {
		fmt.Printf("  %-22s %s\n", name, doc)
		if len(params) > 0 {
			b, _ := json.Marshal(params)
			fmt.Printf("  %-22s   params: %s\n", "", b)
		}
	}
	fmt.Println("topologies:")
	for _, b := range topo.BuilderList() {
		entry(b.Name, b.Doc, b.Params)
	}
	fmt.Println("patterns:")
	for _, m := range workload.PatternList() {
		entry(m.Name, m.Doc, m.Params)
	}
	fmt.Println("size distributions:")
	for _, m := range workload.SizeDistList() {
		entry(m.Name, m.Doc, m.Params)
	}
	fmt.Println("flow generators:")
	for _, g := range scenario.FlowGenList() {
		entry(g.Name, g.Doc, g.Params)
	}
	fmt.Println("protocol runners:")
	for _, r := range scenario.RunnerList() {
		entry(fmt.Sprintf("%s [%s]", r.Name, r.Level), r.Doc, r.Params)
	}
	fmt.Println("metrics:")
	for _, m := range scenario.MetricList() {
		entry(m.Name, m.Doc, m.Params)
	}
	fmt.Println("queue disciplines:")
	for _, q := range scenario.QdiscList() {
		entry(q.Name, q.Doc, q.Params)
	}
}
