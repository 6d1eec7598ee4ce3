package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one metric of the benchmark. The tables below are the
// single source of the names: BENCHMARK.json is generated from them
// (-manifest) and the smoke test fails when the two drift apart.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen (never 0); per-layer metrics carry none, and the
	// key is left out for them.
	Bound float64 `json:"bound,omitempty"`
}

// boundFloor is the tightest bound -calibrate will write for a metric,
// however quiet the calibrating host was.
var boundFloor = map[string]float64{
	"setup_s": 0.25, "wall_s": 0.05, "cpu_s": 0.05, "peak_rss_mb": 0.15,
	"alloc_mb": 0.01, "mallocs_m": 0.01, "ok_share": 0.001,
}

// endToEnd lists what a user of pdqsim pays for a table. All timings are
// host time; simulated statistics are pinned by the table digest. The
// bounds are calibrated (-calibrate, README "Bounds"): on the 2-core
// reference box one pdqsim process repeats within about ±7 % and a run's
// median drifts ±5 % over minutes, max-RSS of the P-worker sweep moves
// 12 % with GC timing, and the allocation counts move 3–4 % with the seed,
// so these sit well above the floors.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"cpu_s", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
	{"alloc_mb", "MB", "lower", 0.12},
	{"mallocs_m", "1e6", "lower", 0.12},
	{"ok_share", "ratio", "higher", 0.001},
}

func lower(unit string, names ...string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: "lower"}
	}
	return out
}

func higher(unit string, names ...string) []metricDef {
	out := lower(unit, names...)
	for i := range out {
		out[i].Better = "higher"
	}
	return out
}

func cat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// kernelMetrics is the per-layer kernel suite: 64 names, layers are the
// module names. Ratios compare a variant against the default
// configuration (wall(default) ÷ wall(variant) for *.speedup.*, variant
// ÷ default for *.on_ratio/cold_ratio); the ones that need a whole
// workload run are measured only on that workload's traced run and read
// 0 elsewhere (see ratioOwner).
var kernelMetrics = cat(
	lower("s", "cmd.build_s"),
	lower("ms", "cmd.start_ms"),
	lower("us", "scenario.load_us"),
	lower("ms", "scenario.warm_run_ms"),
	higher("ratio", "scenario.sweep.speedup"),
	lower("ratio", "scenario.sweep.idle_share"),
	lower("ns", "scenario.metric.eval_ns"),
	lower("ms", "topo.build_ms.fattree16", "topo.build_ms.bcube"),
	lower("us", "topo.path_us.fattree16", "topo.paths4_us.bcube"),
	lower("ms", "topo.partition_ms.fattree16"),
	lower("ns", "workload.gen.flow_ns", "workload.collector.flow_ns"),
	lower("ns", "sim.heap.fire_ns.d1", "sim.heap.fire_ns.d4k", "sim.heap.fire_ns.d1m",
		"sim.heap.cancel_ns.d4k", "sim.wheel.fire_ns.d4k", "sim.wheel.fire_ns.d1m",
		"sim.wheel.cancel_ns.d4k"),
	lower("count", "sim.allocs_per_event"),
	higher("ratio", "sim.shard.speedup.s2", "sim.shard.speedup.s4",
		"sim.wheel.speedup.fattree", "sim.wheel.speedup.websearch"),
	lower("ns", "netsim.fifo.hop_ns.w40", "netsim.fifo.hop_ns.w1500",
		"netsim.ecn.hop_ns.w1500", "netsim.prio.hop_ns.w1500"),
	lower("count", "netsim.fifo.events_per_hop", "netsim.prio.events_per_hop",
		"netsim.allocs_per_hop"),
	lower("ns", "netsim.drop_ns"),
	lower("ns", "core.switchlogic.process_ns.n1", "core.switchlogic.process_ns.n8",
		"core.switchlogic.process_ns.n64", "core.flow.pkt_ns"),
	lower("count", "core.flow.allocs_per_pkt", "core.flow.events_per_pkt"),
	lower("ns", "protocol.tcp.pkt_ns", "protocol.dctcp.pkt_ns", "protocol.pfabric.pkt_ns",
		"protocol.rcp.pkt_ns", "protocol.d3.pkt_ns"),
	lower("count", "protocol.tcp.allocs_per_pkt", "protocol.dctcp.allocs_per_pkt",
		"protocol.pfabric.allocs_per_pkt", "protocol.rcp.allocs_per_pkt",
		"protocol.d3.allocs_per_pkt"),
	lower("us", "flowsim.pdq.allocate_us.f128", "flowsim.pdq.allocate_us.f1280",
		"flowsim.rcp.allocate_us.f128", "flowsim.rcp.allocate_us.f1280",
		"flowsim.d3.allocate_us.f128", "flowsim.d3.allocate_us.f1280"),
	lower("count", "flowsim.allocs_per_step"),
	lower("us", "fluid.optimal_us.f64"),
	lower("us", "trace.cache.get_us", "trace.cache.put_us"),
	lower("ratio", "trace.cache.cold_ratio", "trace.flows.on_ratio", "trace.probes.on_ratio",
		"obsv.on_ratio"),
)

// ratioOwner maps each whole-workload ratio to the workload whose traced
// run measures it.
var ratioOwner = map[string]string{
	"scenario.sweep.speedup":      "figures-quick",
	"scenario.sweep.idle_share":   "figures-quick",
	"sim.shard.speedup.s2":        "fattree-k16",
	"sim.shard.speedup.s4":        "fattree-k16",
	"sim.wheel.speedup.fattree":   "fattree-k16",
	"sim.wheel.speedup.websearch": "baselines-websearch",
	"trace.cache.cold_ratio":      "figures-warm-cache",
	"trace.flows.on_ratio":        "pdq-tree",
	"trace.probes.on_ratio":       "pdq-tree",
	"obsv.on_ratio":               "pdq-tree",
}

// cellSpans are the traced cell's self times; they partition the root
// span (run_s is the enclosing run span, reported for reference and not
// part of the partition).
var cellSpans = []string{
	"cell.topo_build_s", "cell.workload_gen_s", "cell.install_s", "cell.start_s",
	"cell.agent_s", "cell.switchlogic_s", "cell.engine_netsim_s",
	"cell.allocate_s", "cell.flowsim_step_s", "cell.results_s", "cell.metric_s",
}

// cellMetrics is the traced run: 39 names, reported per workload.
var cellMetrics = cat(
	lower("s", cellSpans...),
	lower("s", "cell.run_s"),
	lower("count", "cell.events_fired", "cell.events_scheduled", "cell.events_cancelled",
		"cell.queue_hwm", "cell.pkt_hops", "cell.data_pkts", "cell.drops_queue",
		"cell.drops_loss", "cell.retransmits", "cell.preemptions"),
	higher("count", "cell.flows_done"),
	lower("count", "cell.flows_terminated", "cell.mallocs"),
	lower("B", "cell.alloc_bytes"),
	lower("count", "cell.gc_cycles", "cell.steps"),
	lower("ns", "cell.ns_per_event"),
	lower("ratio", "cell.events_per_hop", "cell.allocs_per_data_pkt"),
	higher("ratio", "cell.goodput_ratio"),
	lower("ratio", "cell.cancel_ratio"),
	lower("count", "sweep.cells"),
	lower("s", "sweep.cell_s_sum"),
	lower("count", "sweep.events_fired"),
	higher("1/s", "sweep.events_per_s"),
	higher("count", "sweep.cache_hits"),
	lower("ratio", "trace.overhead_ratio"),
)

var perLayer = cat(kernelMetrics, cellMetrics)

// manifest is BENCHMARK.json.
type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadWhy `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

type workloadWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// runSeconds is how long one contract run measures. Workloads are sized
// near 1 s per repetition on the 2-core reference box, so 10 s buys eight
// to ten repetitions (three for figures-quick) and the whole run, builds,
// set-up and in-process pass included, stays under 20 s. Longer runs were
// tried and do not tighten the spread: the host's speed drifts over
// minutes, and a run cannot average that out.
const runSeconds = 10

// buildManifest renders BENCHMARK.json from the tables above; bounds
// overrides the default end-to-end bounds (nil keeps them).
func buildManifest(bounds map[string]float64) manifest {
	m := manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, workloadWhy{w.name, w.why})
	}
	for _, d := range endToEnd {
		if v, ok := bounds[d.Name]; ok {
			d.Bound = v
		}
		m.EndToEnd = append(m.EndToEnd, d)
	}
	m.PerLayer = perLayer
	return m
}

func (m manifest) encode() []byte {
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err) // plain strings and floats always marshal
	}
	return append(b, '\n')
}

// readManifest loads BENCHMARK.json from the checkout root.
func readManifest(root string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return m, nil
}
