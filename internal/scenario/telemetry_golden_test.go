package scenario

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"testing"

	"pdq/internal/trace"
)

// packetDeadlineSpec is a packet-level deadline grid: three protocols,
// preemptions, terminations and retransmits all show in its records.
func packetDeadlineSpec() *Spec {
	return &Spec{
		Name:     "packet-deadline",
		Topology: TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": 4}},
		Workload: WorkloadSpec{
			Pattern:        PatternSpec{Name: "aggregation"},
			Sizes:          DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 50}},
			MeanDeadlineMs: 20,
			Count:          8,
		},
		Protocols: []ProtoSpec{{Runner: "PDQ(Full)"}, {Runner: "D3"}, {Runner: "TCP"}},
		Metric:    MetricSpec{Name: "app-throughput"},
		HorizonMs: 100,
	}
}

// flowETSpec is a flow-level deadline grid with Early Termination on and a
// switch crash that reroutes flows, so its records carry terminations and
// its fault log the flow-level transitions.
func flowETSpec() *Spec {
	et := map[string]float64{"et": 1}
	return &Spec{
		Name:     "flow-et",
		Topology: TopoSpec{Name: "fat-tree", Params: map[string]float64{"k": 4}},
		Workload: WorkloadSpec{
			Pattern:        PatternSpec{Name: "permutation"},
			Sizes:          DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 200}},
			MeanDeadlineMs: 5,
			CountPerHost:   2,
		},
		Faults: []FaultSpec{
			{Kind: "switch-crash", Switch: 4, AtMs: 2, RestartMs: 6},
			{Kind: "link-down", Host: -1, DownMs: 1, UpMs: 4},
		},
		Protocols: []ProtoSpec{{Runner: "flow:PDQ", Params: et}, {Runner: "flow:D3", Params: et}, {Runner: "flow:RCP", Params: et}},
		Metric:    MetricSpec{Name: "app-throughput"},
		HorizonMs: 500,
	}
}

func linkfailExample(t *testing.T) *Spec {
	data, err := os.ReadFile("../../examples/scenarios/linkfail-recovery.json")
	if err != nil {
		t.Fatal(err)
	}
	s, err := Load(data)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestTelemetryGolden pins the bytes of the three telemetry exports —
// -trace JSONL, -probe CSV at the default 100 µs stride and -fault-log
// JSONL — for a packet-level deadline grid, a flow-level grid with Early
// Termination and faults, and the linkfail-recovery example, at one and
// at four workers. The probe CSVs run to megabytes, so each export is
// pinned by its line count and SHA-256.
func TestTelemetryGolden(t *testing.T) {
	cases := []struct {
		name                  string
		spec                  func(*testing.T) *Spec
		opts                  Opts
		flows, probes, faults string
	}{
		{"packet-deadline", func(*testing.T) *Spec { return packetDeadlineSpec() }, Opts{Seed: 7},
			"24 856b25a46cc45ff46fcafa548dfbc4bb5c944855c01aa7f9d7d8c2a80abda50e",
			"1975 3d58f7f4a90a9d071dc6a1601e41f10c34aa51d1887c94caa57bb0f1899ec83e",
			"0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"flow-et", func(*testing.T) *Spec { return flowETSpec() }, Opts{Seed: 7},
			"96 84f95cedadf06bd21d66869a4164978f543dafd6648eb91e2e0744c3f32e83bb",
			"1 5c18fce3e5a2b4d3ccae28342d2a50e3ce5e75d16384150a13844516c08a2268",
			"11 2493e40198e16776f527089792e2dc13405d7b45e03cdc443ebe4158269133f2"},
		{"linkfail-recovery", linkfailExample, Opts{Seed: 7, Quick: true},
			"24 6f6e02f0d4182d0bd8cb1756c6ec6eac3b0fe3f2bc36f0e4d1e0973b5cc90b20",
			"46103 2b25c2a24951b481630bdb3c40e7ffea47697c4aecbaa8095c6e3707e85a26ae",
			"6 d36f94bd11211f09c6793203c42ba64fb060c631c07382f80070e245af862610"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, workers := range []int{1, 4} {
				tr := trace.New(true, true)
				tr.SetStrideMicros(100)
				o := tc.opts
				o.Parallel, o.Trace = workers, tr
				if _, err := Run(tc.spec(t), o); err != nil {
					t.Fatal(err)
				}
				for _, out := range []struct {
					kind  string
					write func(io.Writer) error
					want  string
				}{
					{"flows", tr.WriteFlows, tc.flows},
					{"probes", tr.WriteProbes, tc.probes},
					{"faults", tr.WriteFaults, tc.faults},
				} {
					var b bytes.Buffer
					if err := out.write(&b); err != nil {
						t.Fatal(err)
					}
					got := fmt.Sprintf("%d %x", bytes.Count(b.Bytes(), []byte("\n")), sha256.Sum256(b.Bytes()))
					if got != out.want {
						t.Errorf("parallel=%d %s: lines and digest %s, pinned %s", workers, out.kind, got, out.want)
					}
				}
			}
		})
	}
}
