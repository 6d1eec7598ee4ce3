package scenario

import (
	"testing"

	"pdq/internal/obsv"
)

// TestPacedSenderEventSequence pins the engine's event counts for one small
// cell per packet protocol. The figure goldens print 3–4 significant digits
// and would let a reordered or doubled timer through; these counters move
// when any At/After/Cancel call on the sender or receiver path is added,
// dropped or turned into a no-op. The paced rows' constants were recorded at
// the commit before PDQ moved onto xfer's sender (ISSUE 16), the TCP
// family's (pFabric on the prio links it installs) at the commit before the
// six launches moved onto one host scaffold (ISSUE 18); none may change
// under a refactor that claims to move no event.
func TestPacedSenderEventSequence(t *testing.T) {
	tree := TopoSpec{Name: "single-rooted-tree"}
	lossy := TopoSpec{Name: "single-rooted-tree", Loss: &LossSpec{Host: -1, Rate: 0.02}}
	bcube := TopoSpec{Name: "bcube", Params: map[string]float64{"n": 2, "k": 3}}
	cases := []struct {
		name                        string
		topo                        TopoSpec
		proto                       ProtoSpec
		scheduled, fired, cancelled uint64
	}{
		{"PDQ(Full)", tree, ProtoSpec{Runner: "PDQ(Full)"}, 7439, 7023, 440},
		{"PDQ(Basic)", tree, ProtoSpec{Runner: "PDQ(Basic)"}, 23199, 22118, 1105},
		{"M-PDQ(3) on BCube", bcube, ProtoSpec{Runner: "PDQ(Full)", Params: map[string]float64{"subflows": 3}}, 17612, 16779, 857},
		{"RCP", tree, ProtoSpec{Runner: "RCP"}, 10892, 10586, 330},
		{"D3", tree, ProtoSpec{Runner: "D3"}, 6608, 6109, 523},
		{"PDQ(Full) lossy", lossy, ProtoSpec{Runner: "PDQ(Full)"}, 7252, 6913, 363},
		{"TCP", tree, ProtoSpec{Runner: "TCP"}, 11289, 8953, 2360},
		{"DCTCP", tree, ProtoSpec{Runner: "DCTCP"}, 10598, 8334, 2288},
		{"pFabric", tree, ProtoSpec{Runner: "pFabric"}, 26316, 23983, 2357},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := &Spec{
				Name:     "event-pin",
				Topology: tc.topo,
				Workload: WorkloadSpec{
					Pattern:        PatternSpec{Name: "aggregation"},
					Sizes:          DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 60}},
					MeanDeadlineMs: 8,
					Count:          24,
				},
				Protocols: []ProtoSpec{tc.proto},
				Metric:    MetricSpec{Name: "app-throughput"},
				HorizonMs: 500,
			}
			o := Opts{Obs: obsv.New(obsv.WallClock)}
			tab, err := Run(s, o)
			if err != nil {
				t.Fatal(err)
			}
			if len(tab.Errors) > 0 {
				t.Fatalf("partial table:\n%s", tab)
			}
			rt := o.Obs.Runtime.Snapshot()
			if rt.Scheduled != tc.scheduled || rt.Fired != tc.fired || rt.Cancelled != tc.cancelled {
				t.Errorf("scheduled/fired/cancelled = %d, %d, %d; pinned %d, %d, %d\n%s",
					rt.Scheduled, rt.Fired, rt.Cancelled, tc.scheduled, tc.fired, tc.cancelled, tab)
			}
		})
	}
}
