// Command pdqsim regenerates the PDQ paper's evaluation figures and runs
// declarative scenarios.
//
// Usage:
//
//	pdqsim -list
//	pdqsim -exp fig3a [-seed 7]
//	pdqsim -exp all -quick
//	pdqsim -exp all -quick -parallel 8 -trials 5 -json
//	pdqsim -scenario examples/scenarios/fattree-k16-sharded.json -shards 8 -sched wheel
//	pdqsim -scenario examples/scenarios/incast.json -quick
//	pdqsim -scenario examples/scenarios/incast.json -trace flows.jsonl -probe probes.csv
//	pdqsim -exp all -quick -cache
//	pdqsim -exp all -progress -metrics-out metrics.json
//	pdqsim -exp fig3a -http :9090 -http-linger 30s
//	pdqsim -exp all -quick -cpuprofile cpu.pprof -memprofile mem.pprof
//	pdqsim -dump-scenario fig3a
//	pdqsim -list-topologies -list-patterns -list-protocols -list-metrics -list-qdiscs
//
// Each experiment prints the same rows/series the paper reports (see
// DESIGN.md §6–§8 for how the figure specs, the scenario layer and the
// telemetry plane are organized). Sweeps fan out across -parallel
// workers; -trials replicates every sweep point across that many seeds
// and reports mean ± stderr; -json emits machine-readable tables for
// downstream tooling.
//
// -trace writes one JSON line per completed/terminated flow (id, size,
// class, FCT, deadline outcome, bytes acked, retransmits, preemptions),
// tagged by scenario/row/column/seed. -probe writes a CSV time series of
// every link's queue depth and utilization plus the active-flow count,
// sampled each -probe-stride-us. Both capture the grid scenarios; custom
// drivers (fig1/6/7/8e) keep their own trace rows.
//
// -cache (or -cache-dir) memoizes grid-cell results content-addressed by
// their resolved spec material, seed and engine version, so re-running a
// sweep recomputes only cells whose inputs changed; hits reproduce the
// recomputed output byte for byte. Tracing bypasses the cache.
//
// The observability plane (DESIGN.md §13) watches a run without
// perturbing it: -progress renders a live stderr line (cells done/total,
// failures, cache hits, throughput, ETA); -http serves Prometheus text
// on /metrics, per-run sweep progress JSON on /runs and net/http/pprof
// on /debug/pprof while the run executes (-http-linger holds the server
// open afterwards for end-of-run scrapes); -metrics-out writes a JSON
// snapshot of every counter when the run finishes. -cpuprofile and
// -memprofile capture standard runtime profiles. Enabled or not, tables
// are byte-identical — the engines only ever touch plain in-memory
// counters, merged at quiescent points. Diagnostics go through log/slog
// (-log-level), each record tagged with a per-invocation run ID.
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
		shards      = flag.Int("shards", 0, "event-engine shards per simulation (0/1 = single engine; only shard-safe runners shard, output is byte-identical at any count)")
		sched       = flag.String("sched", "", "engine timer backend: heap (default) or wheel (identical firing order, different cost profile)")
		trials      = flag.Int("trials", 1, "replicates per sweep point (reports mean ± stderr)")
		jsonOut     = flag.Bool("json", false, "emit tables as JSON instead of text")
		traceOut    = flag.String("trace", "", "write per-flow completion records to this JSONL file")
		probeOut    = flag.String("probe", "", "write link queue/utilization time series to this CSV file")
		probeStride = flag.Float64("probe-stride-us", 100, "probe sampling period in microseconds")
		faultOut    = flag.String("fault-log", "", "write injected fault/recovery transitions to this JSONL file")
		maxEvents   = flag.Uint64("max-events", 0, "per-cell simulation event budget (0 = unlimited); an exceeding cell fails with a diagnostic")
		cellTimeout = flag.Float64("cell-timeout-ms", 0, "per-cell wall-clock limit in ms (0 = none); a timed-out cell fails with a diagnostic")
		cacheOn     = flag.Bool("cache", false, "memoize sweep cells under the default cache dir (~/.cache/pdqsim)")
		cacheDir    = flag.String("cache-dir", "", "memoize sweep cells under this directory (implies -cache)")
		progressOn  = flag.Bool("progress", false, "render a live progress line on stderr (cells done/total, failures, cache hits, ETA)")
		httpAddr    = flag.String("http", "", "serve /metrics (Prometheus text), /runs (JSON sweep progress) and /debug/pprof on this address during the run")
		httpLinger  = flag.Duration("http-linger", 0, "keep the -http server alive this long after the run finishes (end-of-run scrapes)")
		metricsOut  = flag.String("metrics-out", "", "write an end-of-run JSON metrics snapshot to this file")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile  = flag.String("memprofile", "", "write a heap profile to this file")
		logLevel    = flag.String("log-level", "info", "structured-log threshold: debug, info, warn or error")
		list        = flag.Bool("list", false, "list available experiments")
		listTopo    = flag.Bool("list-topologies", false, "list registered topology builders")
		listPat     = flag.Bool("list-patterns", false, "list registered sending patterns and size distributions")
		listPro     = flag.Bool("list-protocols", false, "list registered protocol runners and analytic baselines")
		listMet     = flag.Bool("list-metrics", false, "list registered metrics and custom drivers")
		listQd      = flag.Bool("list-qdiscs", false, "list registered link queue disciplines")
	)
	flag.Parse()

	logger, err := newLogger(os.Stderr, *logLevel, newRunID())
	if err != nil {
		fmt.Fprintf(os.Stderr, "pdqsim: %v\n", err)
		os.Exit(2)
	}

	if *listTopo || *listPat || *listPro || *listMet || *listQd {
		// Every listing iterates a sorted registry (and params marshal
		// with sorted keys), so repeated runs are byte-identical — CI
		// diffs two invocations to keep it that way.
		if *list {
			listExperiments()
		}
		listRegistries(*listTopo, *listPat, *listPro, *listMet, *listQd)
		return
	}
	if *dumpScen != "" {
		sf, ok := exp.Specs[*dumpScen]
		if !ok {
			fmt.Fprintf(os.Stderr, "pdqsim: unknown experiment %q (try -list)\n", *dumpScen)
			os.Exit(2)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sf()); err != nil {
			fail(logger, err)
		}
		return
	}

	obs, finishObs := setupObsv(obsvConfig{
		Progress:   *progressOn,
		HTTPAddr:   *httpAddr,
		HTTPLinger: *httpLinger,
		MetricsOut: *metricsOut,
		CPUProfile: *cpuProfile,
		MemProfile: *memProfile,
	}, logger)

	opts := scenario.Opts{Quick: *quick, Seed: *seed, Parallel: *parallel, Trials: *trials,
		MaxEvents: *maxEvents, Shards: *shards, Sched: *sched, Obs: obs}
	if *cellTimeout > 0 {
		// The engine never reads a wall clock (pdqlint enforces it); the
		// watchdog factory injects one from out here. Each cell arms a
		// timer that fires its interrupt, and stops it on completion.
		d := time.Duration(*cellTimeout * float64(time.Millisecond))
		opts.Watchdog = func(interrupt func()) (stop func()) {
			tm := time.AfterFunc(d, interrupt)
			return func() { tm.Stop() }
		}
	}

	var tr *trace.Trace
	if *traceOut != "" || *probeOut != "" || *faultOut != "" {
		tr = trace.New(*traceOut != "", *probeOut != "")
		tr.SetStrideMicros(*probeStride)
		opts.Trace = tr
	}
	var cache *trace.Cache
	if *cacheOn || *cacheDir != "" {
		dir := *cacheDir
		if dir == "" {
			var err error
			if dir, err = trace.DefaultCacheDir(); err != nil {
				fail(logger, err)
			}
		}
		var err error
		if cache, err = trace.NewCache(dir); err != nil {
			fail(logger, err)
		}
		if tr != nil {
			logger.Warn("tracing bypasses the sweep cache (hits would skip the runs that emit records)")
		}
		opts.Cache = cache
	}

	if *scenFile != "" {
		data, err := os.ReadFile(*scenFile)
		if err != nil {
			fail(logger, err)
		}
		spec, err := scenario.Load(data)
		if err != nil {
			fail(logger, err)
		}
		start := time.Now()
		table, err := scenario.Run(spec, opts)
		if err != nil {
			fail(logger, err)
		}
		emit(logger, []*scenario.Table{table}, *jsonOut, spec.Name, start)
		writeTelemetry(logger, tr, *traceOut, *probeOut, *faultOut)
		reportCache(logger, cache)
		finishObs()
		exitPartial(logger, []*scenario.Table{table})
		return
	}

	if *list || *name == "" {
		listExperiments()
		if *name == "" && !*list {
			os.Exit(2)
		}
		return
	}

	names := []string{*name}
	if *name == "all" {
		names = exp.FigureNames()
	}
	var tables []*scenario.Table
	for _, n := range names {
		fig, ok := exp.Figures[n]
		if !ok {
			fmt.Fprintf(os.Stderr, "pdqsim: unknown experiment %q (try -list)\n", n)
			os.Exit(2)
		}
		start := time.Now()
		table := fig(opts)
		tables = append(tables, table)
		if *jsonOut {
			continue
		}
		fmt.Println(table)
		fmt.Printf("(%s in %v)\n\n", n, time.Since(start).Round(time.Millisecond))
	}
	if *jsonOut {
		writeJSON(logger, tables)
	}
	writeTelemetry(logger, tr, *traceOut, *probeOut, *faultOut)
	reportCache(logger, cache)
	finishObs()
	exitPartial(logger, tables)
}

// exitPartial exits with status 3 when any table carries failed cells.
// It runs after every table, telemetry file and metrics snapshot is
// emitted, so the partial results are on disk and CI can both upload
// and flag them.
func exitPartial(log *slog.Logger, tables []*scenario.Table) {
	n := 0
	for _, t := range tables {
		n += len(t.Errors)
	}
	if n == 0 {
		return
	}
	log.Warn("cell replicates failed; tables are partial (failed cells are NaN)", "failed", n)
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
	flows, samples, faults := 0, 0, 0
	var dropped uint64
	for _, ct := range tr.Cells() {
		if ct.Flows != nil {
			flows += ct.Flows.Len()
			dropped += ct.Flows.Dropped()
		}
		for _, s := range ct.Probes {
			samples += len(s.Vals)
		}
		faults += len(ct.Faults)
	}
	if dropped > 0 {
		log.Warn("flow records overwritten by ring wraparound (oldest-first); raise the per-cell ring capacity or trace a smaller run",
			"dropped", dropped)
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

// emit prints one scenario result in the selected format.
func emit(log *slog.Logger, tables []*scenario.Table, asJSON bool, name string, start time.Time) {
	if asJSON {
		writeJSON(log, tables)
		return
	}
	for _, t := range tables {
		fmt.Println(t)
	}
	fmt.Printf("(%s in %v)\n", name, time.Since(start).Round(time.Millisecond))
}

func writeJSON(log *slog.Logger, tables []*scenario.Table) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tables); err != nil {
		fail(log, err)
	}
}

// listExperiments prints the figure registry in sorted order.
func listExperiments() {
	fmt.Println("available experiments:")
	for _, n := range exp.FigureNames() {
		fmt.Printf("  %s\n", n)
	}
}

// listRegistries prints the scenario vocabulary: what a spec can name.
func listRegistries(topos, pats, pros, mets, qds bool) {
	entry := func(name, doc string, params map[string]float64) {
		fmt.Printf("  %-22s %s\n", name, doc)
		if len(params) > 0 {
			b, _ := json.Marshal(params)
			fmt.Printf("  %-22s   params: %s\n", "", b)
		}
	}
	if topos {
		fmt.Println("topologies:")
		for _, b := range topo.BuilderList() {
			entry(b.Name, b.Doc, b.Params)
		}
	}
	if pats {
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
	}
	if pros {
		fmt.Println("protocol runners:")
		for _, r := range scenario.RunnerList() {
			tag := r.Level
			if r.ShardSafe {
				tag += ", shardable"
			}
			entry(fmt.Sprintf("%s [%s]", r.Name, tag), r.Doc, r.Params)
		}
		fmt.Println("analytic baselines:")
		for _, a := range scenario.AnalyticList() {
			entry(a.Name, a.Doc, a.Params)
		}
	}
	if mets {
		fmt.Println("metrics:")
		for _, m := range scenario.MetricList() {
			entry(m.Name, m.Doc, m.Params)
		}
		fmt.Println("custom drivers:")
		for _, d := range scenario.DriverList() {
			entry(d.Name, d.Doc, d.Params)
		}
	}
	if qds {
		fmt.Println("queue disciplines:")
		for _, q := range scenario.QdiscList() {
			entry(q.Name, q.Doc, q.Params)
		}
	}
}
