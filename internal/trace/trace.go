// Package trace is the simulators' measurement plane: per-flow completion
// records, fixed-stride time-series probes, and a content-addressed cache
// for sweep-cell results.
//
// Flow records are a read of the finished run: after the engine stops, a
// CellTrace cuts one record — the flow's workload.Result — per resolved
// flow from the run's collector, so a run with tracing off executes
// exactly the instruction stream it always did. Probes are ordinary
// simulation events and only exist when a run asks for them, so a
// probe-free run's event sequence — and therefore its byte-exact output —
// is untouched (DESIGN.md §8).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"pdq/internal/sim"
	"pdq/internal/workload"
)

// MaxFlowRecords is the most flow records one cell keeps: the newest, by
// completion instant. It bounds a traced cell's memory.
const MaxFlowRecords = 1 << 16

// Cell identifies where in an experiment grid a set of records was
// measured: the scenario, the protocol row, the sweep column and the base
// seed of that run. Run distinguishes the multiple simulations one grid
// cell can execute — replicate index when a cell averages several
// generator seeds, probe ordinal during a max-flows/max-rate search — so
// record sets from different runs under one tag never blur together.
// Col is "*" when a single simulation is shared by cells in several
// columns, and Row then the first reader's.
type Cell struct {
	Scenario string `json:"scenario"`
	Row      string `json:"row"`
	Col      string `json:"col"`
	Seed     int64  `json:"seed"`
	Run      int    `json:"run"`
}

// FaultRecord is one fault transition observed during a run: a link (or
// the set of links around a crashed switch) going down or coming back.
// Paired with flow records, it is the trace-plane raw material for
// recovery-time analysis: recovery is the gap between a Down=false record
// and the first flow completion after it.
type FaultRecord struct {
	Kind   string   // "link-down", "switch-crash", "gilbert-loss"
	Target string   // e.g. "host3" or "switch0"
	At     sim.Time // scheduled transition time
	Down   bool     // true at failure onset, false at recovery/restart
}

// CellTrace is the telemetry captured by one simulation run: its flow
// records, any probe series the runner attached, and the fault
// transitions injected into it. A CellTrace is owned by the single
// goroutine running that cell until the run completes.
type CellTrace struct {
	Cell    Cell
	Flows   []workload.Result // the newest MaxFlowRecords, in completion order
	Dropped int               // older records cut to keep Flows at MaxFlowRecords
	Probes  []*Series         // filled by the runner when probing is enabled
	Faults  []FaultRecord

	wantFlows, wantProbes bool
	stride                sim.Duration
}

// RecordFault appends a fault transition to the cell's trace. Safe on a
// nil receiver (tracing off).
func (ct *CellTrace) RecordFault(r FaultRecord) {
	if ct == nil {
		return
	}
	ct.Faults = append(ct.Faults, r)
}

// CutFlows cuts the run's flow records from its collector c; call it
// once, after the engine has stopped. The cell keeps the newest
// MaxFlowRecords resolved flows (Collector.Resolved) and counts the rest
// in Dropped. It does nothing unless the cell captures flow records.
func (ct *CellTrace) CutFlows(c *workload.Collector) {
	if ct != nil && ct.wantFlows {
		ct.Flows, ct.Dropped = c.Resolved(MaxFlowRecords)
	}
}

// WantProbes reports whether the runner should install time-series
// probes for this cell.
func (ct *CellTrace) WantProbes() bool { return ct != nil && ct.wantProbes }

// Stride returns the probe sampling period.
func (ct *CellTrace) Stride() sim.Duration { return ct.stride }

// DefaultStride is the probe sampling period when none is configured.
const DefaultStride = 100 * sim.Microsecond

// Trace aggregates telemetry across the (possibly concurrent) cells of
// one or more experiment runs. OpenCell is safe for concurrent use; a
// returned CellTrace is not shared between goroutines.
type Trace struct {
	FlowRecords bool         // capture per-flow records
	Probes      bool         // capture time-series probes
	Stride      sim.Duration // probe period; 0 = DefaultStride

	mu    sync.Mutex
	cells []*CellTrace
}

// New returns a Trace capturing the requested telemetry kinds.
func New(flowRecords, probes bool) *Trace {
	return &Trace{FlowRecords: flowRecords, Probes: probes}
}

// SetStrideMicros sets the probe sampling period from a microsecond
// count, so commands can configure tracing without importing the
// engine's time types directly. A count that comes to less than the
// engine's 1 ns tick, or is not a number, is an error and leaves the
// period as it was.
func (t *Trace) SetStrideMicros(us float64) error {
	d := us * float64(sim.Microsecond)
	if !(d >= 1 && d < math.MaxInt64) {
		return fmt.Errorf("stride %v µs: want a finite stride of at least 0.001 µs", us)
	}
	t.Stride = sim.Duration(d)
	return nil
}

// OpenCell registers and returns the telemetry capture for one run.
// Calling it on a nil Trace returns nil, which every consumer treats as
// "tracing off".
func (t *Trace) OpenCell(c Cell) *CellTrace {
	if t == nil {
		return nil
	}
	ct := &CellTrace{Cell: c, wantFlows: t.FlowRecords, wantProbes: t.Probes, stride: t.Stride}
	if ct.stride <= 0 {
		ct.stride = DefaultStride
	}
	t.mu.Lock()
	t.cells = append(t.cells, ct)
	t.mu.Unlock()
	return ct
}

// Cells returns every opened cell, stable-sorted by (Scenario, Row, Col,
// Seed, Run) so export order is deterministic regardless of which
// goroutine finished first.
func (t *Trace) Cells() []*CellTrace {
	t.mu.Lock()
	out := append([]*CellTrace(nil), t.cells...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		a, b := out[i].Cell, out[j].Cell
		if a.Scenario != b.Scenario {
			return a.Scenario < b.Scenario
		}
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Seed != b.Seed {
			return a.Seed < b.Seed
		}
		return a.Run < b.Run
	})
	return out
}

// WriteFlows writes every captured flow record as one JSON object per
// line (JSONL), tagged with its cell.
func (t *Trace) WriteFlows(w io.Writer) error {
	for _, ct := range t.Cells() {
		for _, r := range ct.Flows {
			finish := -1.0
			if r.Finish >= 0 {
				finish = r.Finish.Millis()
			}
			class := "short" // the paper's 40 KB cutoff (§5.3)
			if r.Size >= workload.ShortFlowCutoff {
				class = "long"
			}
			_, err := fmt.Fprintf(w,
				`{"scenario":%s,"row":%s,"col":%s,"seed":%d,"run":%d,"flow":%d,"src":%d,"dst":%d,"size":%d,"class":%q,"start_ms":%g,"finish_ms":%g,"deadline_ms":%g,"met":%t,"terminated":%t,"bytes_acked":%d,"retransmits":%d,"preemptions":%d,"ecn_marks":%d,"prio_packets":%d}`+"\n",
				jsonStr(ct.Cell.Scenario), jsonStr(ct.Cell.Row), jsonStr(ct.Cell.Col),
				ct.Cell.Seed, ct.Cell.Run,
				r.ID, r.Src, r.Dst, r.Size, class,
				r.Start.Millis(), finish, r.Deadline.Millis(),
				r.MetDeadline(), r.Terminated, r.BytesAcked, r.Retransmits, r.Preemptions,
				r.ECNMarks, r.PrioPackets)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteFaults writes every injected fault transition as one JSON object
// per line (JSONL), tagged with its cell.
func (t *Trace) WriteFaults(w io.Writer) error {
	for _, ct := range t.Cells() {
		for _, f := range ct.Faults {
			_, err := fmt.Fprintf(w,
				`{"scenario":%s,"row":%s,"col":%s,"seed":%d,"run":%d,"kind":%s,"target":%s,"t_ms":%g,"down":%t}`+"\n",
				jsonStr(ct.Cell.Scenario), jsonStr(ct.Cell.Row), jsonStr(ct.Cell.Col),
				ct.Cell.Seed, ct.Cell.Run,
				jsonStr(f.Kind), jsonStr(f.Target), f.At.Millis(), f.Down)
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteProbes writes every captured probe sample as CSV:
// scenario,row,col,seed,run,series,t_ms,value.
func (t *Trace) WriteProbes(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "scenario,row,col,seed,run,series,t_ms,value"); err != nil {
		return err
	}
	for _, ct := range t.Cells() {
		for _, s := range ct.Probes {
			for i, v := range s.Vals {
				_, err := fmt.Fprintf(w, "%s,%s,%s,%d,%d,%s,%g,%g\n",
					csvField(ct.Cell.Scenario), csvField(ct.Cell.Row), csvField(ct.Cell.Col),
					ct.Cell.Seed, ct.Cell.Run, csvField(s.Name), s.At(i).Millis(), v)
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// jsonStr encodes s as a JSON string literal (labels are spec-authored
// and may contain quotes or non-ASCII bytes).
func jsonStr(s string) string {
	b, err := json.Marshal(s)
	if err != nil { // cannot happen for a string
		return `""`
	}
	return string(b)
}

// csvField quotes a field per RFC 4180 when it contains CSV
// metacharacters: wrap in double quotes, double any embedded quotes.
func csvField(s string) string {
	if !strings.ContainsAny(s, ",\"\n\r") {
		return s
	}
	return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
}
