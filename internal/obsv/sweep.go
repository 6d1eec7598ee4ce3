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

// Cell is the record of one sweep cell: a grid cell's replicate. The
// worker running the cell fills it — its engines count into Engine, and
// a simulation cells share counts into its first reader's — and hands it to
// SweepStats.CellEnd once; every aggregate is a read of the finished
// records (DESIGN.md §13).
type Cell struct {
	Row  string `json:"row"`
	Col  string `json:"col"`
	Rep  int    `json:"rep"`
	Seed int64  `json:"seed"`
	Err  string `json:"err,omitempty"` // the failure; empty when the cell has a value

	Cached bool  `json:"cached,omitempty"`  // served from the cell cache
	WallNs int64 `json:"wall_ns,omitempty"` // stamped by CellEnd; 0 with a nil clock

	Probes  uint64 `json:"probes"`         // search-probe simulations run
	Decided uint64 `json:"probes_decided"` // of those, stopped at their verdict, short of the horizon

	FlowsDone       uint64 `json:"flows_done"`       // over the cell's simulations
	FlowsTerminated uint64 `json:"flows_terminated"` // given up on by Early Termination

	Engine EngineStats `json:"engine"`
}

// SweepStats tracks one sweep run's per-cell state machine:
//
//	pending -> running -> done | failed
//
// with "cached" marking done cells that were served from the result
// cache rather than simulated. It keeps the announced total, the running
// gauge and the finished Cell records, off which everything else is read.
// Sweep workers finish cells concurrently and the HTTP server reads live,
// so the gauges are atomic and the records mutex-guarded; none of this is
// on a simulation hot path.
type SweepStats struct {
	Name string // run name (scenario/experiment), fixed at StartRun

	clock Clock // nil disables durations, rates, ETA
	start int64 // clock() at StartRun
	end   atomic.Int64

	total   atomic.Uint64 // announced cells (AddTotal)
	running atomic.Int64  // currently executing

	mu    sync.Mutex
	cells []Cell // finished records, in finishing order; append-only
}

func newSweepStats(name string, clock Clock) *SweepStats {
	s := &SweepStats{Name: name, clock: clock}
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

// CellEnd keeps c, a finished cell's record (failed when Err is set), with
// WallNs stamped from startNs, CellStart's return value.
func (s *SweepStats) CellEnd(startNs int64, c Cell) {
	if s == nil {
		return
	}
	if s.clock != nil && startNs != 0 {
		c.WallNs = s.clock() - startNs
	}
	s.mu.Lock()
	s.cells = append(s.cells, c)
	s.mu.Unlock()
	s.running.Add(-1)
}

// records returns the finished records. The slice is shared: CellEnd
// only appends past its end, so it must be read, never written.
func (s *SweepStats) records() []Cell {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.cells[:len(s.cells):len(s.cells)]
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
	Cells       []Cell  `json:"cells"` // the finished records, in finishing order; shared, read-only
}

// Snapshot reads the sweep's current progress off its records. Gauge
// reads are individually atomic, not one transaction; momentary skew
// between done and total is acceptable for monitoring.
func (s *SweepStats) Snapshot() SweepSnapshot {
	if s == nil {
		return SweepSnapshot{EtaMs: -1}
	}
	snap := SweepSnapshot{
		Name:    s.Name,
		Total:   s.total.Load(),
		Running: s.running.Load(),
		EtaMs:   -1,
		Cells:   s.records(),
	}
	for _, c := range snap.Cells {
		if c.Err != "" {
			snap.Failed++
		} else {
			snap.Done++
		}
		if c.Cached {
			snap.Cached++
		}
		snap.Probes += c.Probes
		snap.Decided += c.Decided
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

// CellSeconds builds the cell wall-time histogram from the records (empty
// with a nil clock) and hands it to fn.
func (s *SweepStats) CellSeconds(fn func(h *Histogram)) {
	if s == nil {
		return
	}
	h := NewHistogram(cellSecondsBounds)
	if s.clock != nil {
		for _, c := range s.records() {
			h.Observe(float64(c.WallNs) / 1e9)
		}
	}
	fn(h)
}
