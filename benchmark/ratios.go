package main

import (
	"bytes"
	"os"
	"path/filepath"
	"time"

	"pdq/internal/obsv"
	"pdq/internal/scenario"
	"pdq/internal/trace"
)

// Whole-workload numbers of the traced run: the sweep.* counters from
// one observed in-process run of the workload, and the ratios that price
// an optional plane or an alternative engine configuration against the
// default on the workload they matter for. Each ratio needs full runs of
// that workload, so each is measured only on its owner's traced run
// (ratioOwner) and reads 0 elsewhere. Every variant must reproduce the
// default run's tables byte for byte — that is the traced-vs-untraced,
// -parallel 1 vs P and cold-vs-warm identity check.

// variant runs w in-process under o and returns its wall seconds and
// table bytes.
func (k *kernels) variant(w *workloadDef, what string, o scenario.Opts) (float64, []byte) {
	start := time.Now()
	ts, err := w.runInProcess(k.h.root, k.h.seed, k.h.smoke, o)
	wall := time.Since(start).Seconds()
	if !k.ok(err == nil, "%s run of %s: %v", what, w.name, err) {
		return wall, nil
	}
	enc, err := encodeTables(ts)
	k.ok(err == nil, "%s run of %s: %v", what, w.name, err)
	return wall, enc
}

// observe runs w with the observability plane attached and reports the
// sweep.* metrics from its counters. It returns the run's wall seconds,
// table bytes and the sum of its cells' seconds.
func (k *kernels) observe(w *workloadDef, o scenario.Opts) (wall float64, enc []byte, cellSeconds float64) {
	obs := obsv.New(obsv.WallClock)
	progress := obs.StartRun(w.name)
	o.Obs, o.Progress = obs, progress
	wall, enc = k.variant(w, "observed", o)
	progress.Finish()
	progress.CellSeconds(func(h *obsv.Histogram) { cellSeconds = h.Sum() })
	snap, rt := progress.Snapshot(), obs.Runtime.Snapshot()
	k.ok(snap.Failed == 0, "observed run of %s: %d cells failed", w.name, snap.Failed)
	k.set("sweep.cells", "count", float64(snap.Done+snap.Failed))
	k.set("sweep.cell_s_sum", "s", cellSeconds)
	k.set("sweep.events_fired", "count", float64(rt.Fired))
	k.set("sweep.events_per_s", "1/s", float64(rt.Fired)/wall)
	k.set("sweep.cache_hits", "count", float64(snap.Cached))
	if w.warmCache {
		k.ok(rt.Fired == 0 && snap.Cached == snap.Done,
			"warm cache: %d events fired, %d of %d cells were hits", rt.Fired, snap.Cached, snap.Done)
	}
	return wall, enc, cellSeconds
}

// wholeWorkload measures sweep.* and the ratios w owns.
func (k *kernels) wholeWorkload(w *workloadDef) {
	for name := range ratioOwner {
		k.set(name, "ratio", 0)
	}
	if w.warmCache {
		k.warmCache(w)
		return
	}
	base, want := k.variant(w, "default", scenario.Opts{})
	// against records wall(default) ÷ wall(variant) when speedup is set,
	// the inverse otherwise.
	against := func(name string, speedup bool, o scenario.Opts) {
		wall, enc := k.variant(w, name, o)
		k.ok(bytes.Equal(enc, want), "%s: tables differ from the default run's", name)
		if speedup {
			k.set(name, "ratio", base/wall)
		} else {
			k.set(name, "ratio", wall/base)
		}
	}
	observed, enc, cellSeconds := k.observe(w, scenario.Opts{})
	k.ok(bytes.Equal(enc, want), "%s: observed tables differ from unobserved", w.name)
	switch w.name {
	case "pdq-tree":
		k.set("obsv.on_ratio", "ratio", observed/base)
		against("trace.flows.on_ratio", false, scenario.Opts{Trace: trace.New(true, false)})
		against("trace.probes.on_ratio", false, scenario.Opts{Trace: trace.New(true, true)})
	case "baselines-websearch":
		against("sim.wheel.speedup.websearch", true, scenario.Opts{Sched: "wheel"})
	case "fattree-k16":
		against("sim.shard.speedup.s2", true, scenario.Opts{Shards: 2})
		against("sim.shard.speedup.s4", true, scenario.Opts{Shards: 4})
		against("sim.wheel.speedup.fattree", true, scenario.Opts{Sched: "wheel"})
	case "figures-quick":
		// base ran on P workers; the serial run gives the speed-up, the
		// observed run's cell seconds the share of worker time spent idle
		// (the sweep waits for its slowest cell).
		serial, enc := k.variant(w, "serial", scenario.Opts{Parallel: 1})
		k.ok(bytes.Equal(enc, want), "figures-quick: -parallel 1 tables differ from -parallel %d", workers())
		k.set("scenario.sweep.speedup", "ratio", serial/base)
		k.set("scenario.sweep.idle_share", "ratio", 1-cellSeconds/(observed*float64(workers())))
	}
}

// warmCache prices the write side of the cell cache — the same command
// cold, against a run with no cache at all — then observes a warm
// in-process run: no event may fire and every cell must be a hit.
func (k *kernels) warmCache(w *workloadDef) {
	dir, err := os.MkdirTemp(k.h.tmp, "cold-")
	if !k.ok(err == nil, "trace.cache.cold_ratio: %v", err) {
		return
	}
	defer os.RemoveAll(dir)
	cold := k.h.child(procsFor(w), w.args(dir, k.h.seed, k.h.smoke)...)
	plain := k.h.child(procsFor(w), findWorkload("figures-quick").args(dir, k.h.seed, k.h.smoke)...)
	k.ok(cold.err == nil && plain.err == nil, "trace.cache.cold_ratio: %v %v", cold.err, plain.err)
	k.ok(bytes.Equal(cold.stdout, plain.stdout), "cold-cache tables differ from uncached")
	k.set("trace.cache.cold_ratio", "ratio", cold.wall/plain.wall)
	cache, err := trace.NewCache(filepath.Join(dir, "cache"))
	if !k.ok(err == nil, "opening the populated cache: %v", err) {
		return
	}
	_, enc, _ := k.observe(w, scenario.Opts{Cache: cache})
	k.ok(bytes.Equal(enc, cold.stdout), "warm-cache tables differ from the cold pass's")
}
