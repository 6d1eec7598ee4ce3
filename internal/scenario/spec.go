package scenario

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// Spec is a declarative experiment: a topology, a workload, a protocol
// set, an optional sweep axis, a metric, and how to reduce cells into a
// table. Every component is a registered name plus parameters, so a spec
// round-trips through JSON and `pdqsim -scenario file.json` runs it with
// zero new Go code.
//
// Fields named Quick* override their base counterpart when Opts.Quick is
// set (zero values mean "no override"), so one spec describes both the
// paper-scale and the seconds-scale variant of an experiment.
type Spec struct {
	Name   string `json:"name"`
	Desc   string `json:"desc,omitempty"`
	Digits int    `json:"digits,omitempty"` // table formatting precision; 0 = default 2

	Topology  TopoSpec     `json:"topology,omitempty"`
	Workload  WorkloadSpec `json:"workload,omitempty"`
	Protocols []ProtoSpec  `json:"protocols,omitempty"`
	Sweep     *SweepSpec   `json:"sweep,omitempty"`
	// ColLabel names the single column when there is no sweep
	// (default "value").
	ColLabel string     `json:"col_label,omitempty"`
	Metric   MetricSpec `json:"metric,omitempty"`
	Eval     EvalSpec   `json:"eval,omitempty"`
	// HorizonMs is how long each simulation runs.
	HorizonMs      float64 `json:"horizon_ms,omitempty"`
	QuickHorizonMs float64 `json:"quick_horizon_ms,omitempty"`
	// Normalize post-processes the raw cell grid: "" (none), "base-row"
	// (divide every column by the first row's value in that column), or
	// "first-cell" (divide everything by cell (0,0)).
	Normalize string `json:"normalize,omitempty"`
	// Faults is the deterministic fault schedule injected into every
	// simulated cell (DESIGN.md §11). Validated at compile time against
	// each column's topology.
	Faults []FaultSpec `json:"faults,omitempty"`
}

// FaultSpec is one declarative fault, times in milliseconds. Kind selects
// which fields apply:
//
//   - "link-down": Host's access link fails over [DownMs, UpMs);
//   - "switch-crash": Switch loses its soft state at AtMs and, when
//     RestartMs > 0, is unreachable for that long;
//   - "gilbert-loss": Host's access link runs a Gilbert-Elliott burst-loss
//     process (per-packet probabilities) for the whole run.
type FaultSpec struct {
	Kind      string  `json:"kind"`
	Host      int     `json:"host,omitempty"` // negative counts from the last host
	Switch    int     `json:"switch,omitempty"`
	DownMs    float64 `json:"down_ms,omitempty"`
	UpMs      float64 `json:"up_ms,omitempty"`
	AtMs      float64 `json:"at_ms,omitempty"`
	RestartMs float64 `json:"restart_ms,omitempty"`
	PGB       float64 `json:"p_gb,omitempty"`
	PBG       float64 `json:"p_bg,omitempty"`
	LossGood  float64 `json:"loss_good,omitempty"`
	LossBad   float64 `json:"loss_bad,omitempty"`
}

// TopoSpec names a registered topology family.
type TopoSpec struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
	Loss   *LossSpec          `json:"loss,omitempty"`
}

// LossSpec injects a packet-loss rate on one host's access link, both
// directions (§5.6's lossy-link experiments).
type LossSpec struct {
	Host int     `json:"host"` // host index; negative counts from the last host
	Rate float64 `json:"rate"`
}

// PatternSpec names a registered sending pattern.
type PatternSpec struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// DistSpec names a registered flow-size distribution.
type DistSpec struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// ArrivalSpec switches the workload from a t=0 batch to a Poisson arrival
// process of Rate flows/s over [0, WindowMs).
type ArrivalSpec struct {
	Rate          float64 `json:"rate"`
	QuickRate     float64 `json:"quick_rate,omitempty"`
	WindowMs      float64 `json:"window_ms"`
	QuickWindowMs float64 `json:"quick_window_ms,omitempty"`
}

// WorkloadSpec describes how each cell's flow set is drawn.
type WorkloadSpec struct {
	Pattern PatternSpec `json:"pattern,omitempty"`
	Sizes   DistSpec    `json:"sizes,omitempty"`
	// MeanDeadlineMs draws exponential deadlines with this mean (3 ms
	// floor); 0 means deadline-unconstrained flows.
	MeanDeadlineMs float64 `json:"mean_deadline_ms,omitempty"`
	// DeadlineShortOnly restricts deadlines to flows under the paper's
	// 40 KB short-flow cutoff (§5.3 VL2 query traffic).
	DeadlineShortOnly bool `json:"deadline_short_only,omitempty"`
	// Count is the batch size; CountPerHost scales it with the topology.
	Count             int     `json:"count,omitempty"`
	QuickCount        int     `json:"quick_count,omitempty"`
	CountPerHost      float64 `json:"count_per_host,omitempty"`
	QuickCountPerHost float64 `json:"quick_count_per_host,omitempty"`
	// TakeFraction keeps only the first fraction of the drawn flows
	// (load sweeps); 0 keeps all.
	TakeFraction float64 `json:"take_fraction,omitempty"`
	// Hosts restricts the pattern to the first N hosts of the topology;
	// 0 means all hosts.
	Hosts int `json:"hosts,omitempty"`
	// SeedsPerCell averages each cell over this many generator seeds
	// (base, base+1, ...); 0 or 1 draws once.
	SeedsPerCell      int `json:"seeds_per_cell,omitempty"`
	QuickSeedsPerCell int `json:"quick_seeds_per_cell,omitempty"`
	// Arrival switches from a batch to a Poisson process.
	Arrival *ArrivalSpec `json:"arrival,omitempty"`
	// Custom selects a registered flow generator instead of the
	// pattern/sizes machinery (hand-built flow sets like Fig. 12's
	// long-vs-shorts contention).
	Custom string             `json:"custom,omitempty"`
	Params map[string]float64 `json:"params,omitempty"`
}

// MetricSpec names a registered metric over one run's per-flow results.
type MetricSpec struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// QdiscSpec names a registered link queue discipline (the netsim qdisc
// registry: tail-drop, ecn, prio).
type QdiscSpec struct {
	Name   string             `json:"name"`
	Params map[string]float64 `json:"params,omitempty"`
}

// ProtoSpec is one table row: a registered runner, packet- or flow-level.
// In JSON a bare string "PDQ(Full)" is shorthand for {"runner":
// "PDQ(Full)"}.
type ProtoSpec struct {
	// Label is the row label; defaults to the runner name.
	Label string `json:"label,omitempty"`
	// Runner names a registered protocol runner.
	Runner string             `json:"runner,omitempty"`
	Params map[string]float64 `json:"params,omitempty"`
	// Metric overrides the spec-level metric, and a sweep case's, for
	// this row.
	Metric *MetricSpec `json:"metric,omitempty"`
	// Ref names a reference runner: it runs on the same flows, column and
	// seed as the row, and a pair metric (fct-ratio) compares the row's
	// results with its results.
	Ref string `json:"ref,omitempty"`
	// Qdisc overrides the link queue discipline for this row's runs
	// (packet-level runners only): every link of the built topology gets
	// a fresh instance after protocol installation, replacing both the
	// tail-drop default and any discipline the protocol installs itself.
	Qdisc *QdiscSpec `json:"qdisc,omitempty"`
	// Fixed rows ignore the sweep axis: every column evaluates the base
	// spec (constant baselines like Fig. 12's RCP rows).
	Fixed bool `json:"fixed,omitempty"`
	// Cols limits evaluation to the first N sweep columns; the rest are
	// not cells (the paper's "packet level beyond reach"): they run
	// nothing and show NaN. 0 = all.
	Cols int `json:"cols,omitempty"`
}

// UnmarshalJSON accepts either a bare runner-name string or the full
// object form, which like the rest of a spec may hold no unknown key.
func (p *ProtoSpec) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var name string
		if err := json.Unmarshal(b, &name); err != nil {
			return err
		}
		*p = ProtoSpec{Runner: name}
		return nil
	}
	type raw ProtoSpec // shed the method to avoid recursion
	var r raw
	if err := decodeStrict(b, &r); err != nil {
		return err
	}
	*p = ProtoSpec(r)
	return nil
}

// SweepSpec is the table's column axis. Numeric axes use Axis+Values;
// structured axes (pattern, sizes, scale) enumerate Cases, each patching
// part of the spec.
type SweepSpec struct {
	// Axis names what Values modify: "flows", "flows-per-host",
	// "mean-size-kb", "mean-deadline-ms", "loss-rate", "load",
	// "poisson-rate", "runner:<param>" (sets <param> on every non-fixed
	// row's runner), or "metric:<param>" (sets <param> on every non-fixed
	// row's metric — e.g. sweeping fct-cdf's at_ms plots a CDF curve).
	// A sweep with Cases sets none of Axis, Values and Labels.
	Axis        string    `json:"axis,omitempty"`
	Values      []float64 `json:"values,omitempty"`
	QuickValues []float64 `json:"quick_values,omitempty"`
	// Labels overrides the column labels (default: %g of the value, or
	// the case's label).
	Labels      []string    `json:"labels,omitempty"`
	QuickLabels []string    `json:"quick_labels,omitempty"`
	Cases       []SweepCase `json:"cases,omitempty"`
	QuickCases  []SweepCase `json:"quick_cases,omitempty"`
}

// SweepCase is one structured sweep point: whichever fields are set
// replace the spec's for that column.
type SweepCase struct {
	Label    string       `json:"label,omitempty"`
	Topology *TopoSpec    `json:"topology,omitempty"`
	Pattern  *PatternSpec `json:"pattern,omitempty"`
	Sizes    *DistSpec    `json:"sizes,omitempty"`
	// Metric is the column's metric, for every non-fixed row that names
	// none of its own.
	Metric *MetricSpec `json:"metric,omitempty"`
}

// EvalSpec selects how each cell turns a flow set into a scalar.
type EvalSpec struct {
	// Mode: "" or "run" evaluates the metric once; "max-flows" searches
	// for the largest batch size n in [1, hi] whose metric stays at or
	// above Threshold and reports n; "max-rate" does the same over
	// Poisson arrival rates n·RateStep for n in [1, steps] and reports
	// the rate.
	Mode       string  `json:"mode,omitempty"`
	Hi         int     `json:"hi,omitempty"`
	QuickHi    int     `json:"quick_hi,omitempty"`
	HiPerHost  float64 `json:"hi_per_host,omitempty"` // hi = hi_per_host × topology hosts
	Threshold  float64 `json:"threshold,omitempty"`   // a search mode needs it > 0
	Steps      int     `json:"steps,omitempty"`
	QuickSteps int     `json:"quick_steps,omitempty"`
	RateStep   float64 `json:"rate_step,omitempty"`
}

// quickInt resolves a full/quick pair: the quick value wins when q is set
// and the override is non-zero.
func quickInt(full, quick int, q bool) int {
	if q && quick != 0 {
		return quick
	}
	return full
}

func quickFloat(full, quick float64, q bool) float64 {
	if q && quick != 0 {
		return quick
	}
	return full
}

// overlay returns base with over's entries laid on top (a sweep axis
// value on a row's or a size distribution's parameters); base itself when
// there is nothing to lay on.
func overlay(base, over map[string]float64) map[string]float64 {
	if len(over) == 0 {
		return base
	}
	p := make(map[string]float64, len(base)+len(over))
	for k, v := range base {
		p[k] = v
	}
	for k, v := range over {
		p[k] = v
	}
	return p
}

// Load parses a JSON spec. A key no field takes, at any depth, is an
// error that names it: a typo must not run a different experiment.
func Load(data []byte) (*Spec, error) {
	var s Spec
	if err := decodeStrict(data, &s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if s.Name == "" {
		return nil, fmt.Errorf("scenario: spec has no name")
	}
	return &s, nil
}

// decodeStrict is json.Unmarshal refusing unknown keys.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("unexpected data after the top-level value")
	}
	return nil
}
