package obsv

import (
	"sync"
	"sync/atomic"
)

// cellSecondsBounds are the upper bucket edges for the per-cell wall
// time histogram, in seconds: sub-millisecond cells (cache hits, quick
// fluid models) up to multi-minute packet-level cells.
var cellSecondsBounds = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 120, 300,
}

// SweepStats tracks one sweep run's per-cell state machine:
//
//	pending -> running -> done | failed
//
// with "cached" marking done cells that were served from the result
// cache rather than simulated. Counters are atomic (sweep workers
// finish cells concurrently; the HTTP server reads live); the latency
// histogram is mutex-guarded. CellEnd is called a few times per cell,
// never inside the event loop, so none of this is hot-path.
type SweepStats struct {
	Name string // run name (scenario/experiment), fixed at StartRun

	clock Clock // nil disables durations, rates, ETA
	start int64 // clock() at StartRun
	end   atomic.Int64

	total   atomic.Uint64 // announced cells (AddTotal)
	running atomic.Int64  // currently executing
	done    atomic.Uint64 // finished OK (includes cached)
	failed  atomic.Uint64 // finished with error/panic
	cached  atomic.Uint64 // subset of done served from cache
	probes  atomic.Uint64 // search-probe simulations run
	decided atomic.Uint64 // subset of probes stopped at their verdict, short of the horizon

	mu      sync.Mutex
	seconds *Histogram // per-cell wall seconds
}

func newSweepStats(name string, clock Clock) *SweepStats {
	s := &SweepStats{Name: name, clock: clock, seconds: NewHistogram(cellSecondsBounds)}
	if clock != nil {
		s.start = clock()
	}
	return s
}

// AddTotal announces n more cells that will run in this sweep.
func (s *SweepStats) AddTotal(n int) {
	if s != nil && n > 0 {
		s.total.Add(uint64(n))
	}
}

// CellStart marks one cell as running and returns its start timestamp
// (0 with a nil clock) for the matching CellEnd.
func (s *SweepStats) CellStart() int64 {
	if s == nil {
		return 0
	}
	s.running.Add(1)
	if s.clock == nil {
		return 0
	}
	return s.clock()
}

// CellEnd marks one cell as finished. startNs is CellStart's return
// value; failed records the cell under failures instead of done.
func (s *SweepStats) CellEnd(startNs int64, failed bool) {
	if s == nil {
		return
	}
	s.running.Add(-1)
	if failed {
		s.failed.Add(1)
	} else {
		s.done.Add(1)
	}
	if s.clock != nil && startNs != 0 {
		sec := float64(s.clock()-startNs) / 1e9
		s.mu.Lock()
		s.seconds.Observe(sec)
		s.mu.Unlock()
	}
}

// CacheHit marks one finished cell as served from the result cache.
// The cell still goes through CellStart/CellEnd; cached is a subset of
// done, so cache hit ratio is cached/done.
func (s *SweepStats) CacheHit() {
	if s != nil {
		s.cached.Add(1)
	}
}

// Probe counts one search-probe simulation (a max-flows/max-rate cell runs
// several); decided marks one that stopped as soon as its verdict was
// fixed. decided/probes near 1 is why a search cell is fast; near 0 means
// its metric has no interval or its cells shard.
func (s *SweepStats) Probe(decided bool) {
	if s == nil {
		return
	}
	s.probes.Add(1)
	if decided {
		s.decided.Add(1)
	}
}

// Finish stamps the run's end time. Idempotent; later snapshots stop
// accumulating elapsed time.
func (s *SweepStats) Finish() {
	if s != nil && s.clock != nil {
		s.end.CompareAndSwap(0, s.clock())
	}
}

// SweepSnapshot is a point-in-time copy of a sweep's progress.
type SweepSnapshot struct {
	Name        string  `json:"name"`
	Total       uint64  `json:"cells_total"`
	Running     int64   `json:"cells_running"`
	Done        uint64  `json:"cells_done"`
	Failed      uint64  `json:"cells_failed"`
	Cached      uint64  `json:"cells_cached"`
	Probes      uint64  `json:"probes"`          // search-probe simulations run
	Decided     uint64  `json:"probes_decided"`  // of those, stopped at their verdict
	HitRatio    float64 `json:"cache_hit_ratio"` // cached/done; 0 when done==0
	ElapsedMs   int64   `json:"elapsed_ms"`      // 0 with a nil clock
	CellsPerSec float64 `json:"cells_per_sec"`   // (done+failed)/elapsed
	EtaMs       int64   `json:"eta_ms"`          // -1 when unknown
	Finished    bool    `json:"finished"`
}

// Snapshot copies the sweep's current progress. Counter reads are
// individually atomic, not one transaction; momentary skew between
// done and total is acceptable for monitoring.
func (s *SweepStats) Snapshot() SweepSnapshot {
	if s == nil {
		return SweepSnapshot{EtaMs: -1}
	}
	snap := SweepSnapshot{
		Name:    s.Name,
		Total:   s.total.Load(),
		Running: s.running.Load(),
		Done:    s.done.Load(),
		Failed:  s.failed.Load(),
		Cached:  s.cached.Load(),
		Probes:  s.probes.Load(),
		Decided: s.decided.Load(),
		EtaMs:   -1,
	}
	if snap.Done > 0 {
		snap.HitRatio = float64(snap.Cached) / float64(snap.Done)
	}
	end := s.end.Load()
	snap.Finished = end != 0
	if s.clock != nil {
		if end == 0 {
			end = s.clock()
		}
		elapsed := end - s.start
		if elapsed < 0 {
			elapsed = 0
		}
		snap.ElapsedMs = elapsed / 1e6
		finished := snap.Done + snap.Failed
		if elapsed > 0 && finished > 0 {
			snap.CellsPerSec = float64(finished) / (float64(elapsed) / 1e9)
			if left := snap.Total - finished; snap.Total >= finished && !snap.Finished {
				snap.EtaMs = int64(float64(left) / snap.CellsPerSec * 1e3)
			}
		}
		if snap.Finished {
			snap.EtaMs = 0
		}
	}
	return snap
}

// CellSeconds returns a copy-free view of the cell latency histogram
// under the stats lock; fn must not retain h.
func (s *SweepStats) CellSeconds(fn func(h *Histogram)) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	fn(s.seconds)
}
