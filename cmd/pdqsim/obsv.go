// Observability wiring for pdqsim: the -progress / -http / -metrics-out
// / -cpuprofile / -memprofile flag surface over internal/obsv. All
// wall-clock reads for the plane live here (or behind obsv's injected
// Clock) — the engines only ever touch plain counters, so enabling any
// of this cannot perturb event order (DESIGN.md §13).

package main

import (
	"log/slog"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"time"

	"pdq/internal/obsv"
)

// obsvConfig is the observability flag surface (README "Observability").
type obsvConfig struct {
	Progress   bool
	HTTPAddr   string
	HTTPLinger time.Duration
	MetricsOut string
	CPUProfile string
	MemProfile string
}

// wantsObserver reports whether any flag needs the metrics plane. When
// none do, Opts.Obs stays nil and no cell's record is kept.
func (c obsvConfig) wantsObserver() bool {
	return c.Progress || c.HTTPAddr != "" || c.MetricsOut != ""
}

// setupObsv wires the run's observability plane: the wall-clocked
// Observer that scenario.Opts.Obs hands every cell's record to, the live
// -progress ticker, the -http server (http.go), and the profilers. The
// returned finish must run after tables and telemetry are emitted but
// before exitPartial — os.Exit skips defers, so the profiles and the
// metrics snapshot would otherwise be lost. Once intr has fired, finish
// no longer waits out -http-linger.
func setupObsv(cfg obsvConfig, intr *interrupter, log *slog.Logger) (*obsv.Observer, func()) {
	var obs *obsv.Observer
	if cfg.wantsObserver() {
		obs = obsv.New(obsv.WallClock)
	}

	stopCPU := func() {}
	if cfg.CPUProfile != "" {
		f, err := os.Create(cfg.CPUProfile)
		if err != nil {
			fail(log, err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(log, err)
		}
		stopCPU = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fail(log, err)
			}
			log.Info("wrote CPU profile", "path", cfg.CPUProfile)
		}
	}

	stopHTTP := func() {}
	if cfg.HTTPAddr != "" {
		ln, err := net.Listen("tcp", cfg.HTTPAddr)
		if err != nil {
			fail(log, err)
		}
		log.Info("observability server listening",
			"addr", ln.Addr().String(),
			"endpoints", "/metrics /runs /metrics.json /debug/pprof/")
		srv := &httpServer{obs: obs, ln: ln, timeout: requestTimeout, log: log}
		go srv.serve()
		stopHTTP = func() {
			// Hold the endpoints open so scrapers can collect the final
			// counters; everything they read is already in memory. An
			// interruption ends the wait, or skips it.
			if cfg.HTTPLinger > 0 && !intr.fired() {
				log.Info("holding observability server open", "linger", cfg.HTTPLinger.String())
				select {
				case <-time.After(cfg.HTTPLinger):
				case <-intr.done:
				}
			}
			ln.Close()
		}
	}

	stopProgress := func() {}
	if cfg.Progress {
		p := &obsv.Progress{W: os.Stderr, Observer: obs}
		tick := time.NewTicker(200 * time.Millisecond)
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				case <-tick.C:
					p.Tick()
				}
			}
		}()
		stopProgress = func() {
			tick.Stop()
			close(done)
			wg.Wait()
			p.Done()
		}
	}

	finish := func() {
		stopProgress()
		if cfg.MetricsOut != "" {
			f, err := os.Create(cfg.MetricsOut)
			if err != nil {
				fail(log, err)
			}
			err = obs.WriteJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail(log, err)
			}
			log.Info("wrote metrics snapshot", "path", cfg.MetricsOut)
		}
		if cfg.MemProfile != "" {
			f, err := os.Create(cfg.MemProfile)
			if err != nil {
				fail(log, err)
			}
			runtime.GC() // settle the heap so the profile reflects live objects
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail(log, err)
			}
			log.Info("wrote heap profile", "path", cfg.MemProfile)
		}
		stopCPU()
		stopHTTP()
	}
	return obs, finish
}
