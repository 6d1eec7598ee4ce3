package scenario

import (
	"strings"
	"testing"
)

// packetSpec is a small packet-level grid the qdisc tests decorate.
func packetSpec() *Spec {
	return &Spec{
		Name:      "q",
		Topology:  TopoSpec{Name: "single-bottleneck", Params: map[string]float64{"senders": 3}},
		Workload:  WorkloadSpec{Pattern: PatternSpec{Name: "aggregation"}, Sizes: DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 20}}, Count: 3},
		Protocols: []ProtoSpec{{Runner: "TCP"}},
		Metric:    MetricSpec{Name: "mean-fct"},
		HorizonMs: 200,
	}
}

func TestNewRunnersRegistered(t *testing.T) {
	for _, name := range []string{"DCTCP", "pFabric"} {
		e, ok := runners.Lookup(name)
		if !ok {
			t.Fatalf("runner %q not registered (have %v)", name, runners.Names())
		}
		if e.Level != "packet" {
			t.Errorf("runner %q level %q, want packet", name, e.Level)
		}
	}
}

func TestNewRunnersProduceResults(t *testing.T) {
	s := packetSpec()
	s.Protocols = []ProtoSpec{
		{Runner: "TCP"},
		{Runner: "DCTCP"},
		{Runner: "DCTCP", Label: "DCTCP(K=8KB)", Params: map[string]float64{"threshold_kb": 8}},
		{Runner: "pFabric"},
		{Runner: "pFabric", Label: "pFabric(2 bands)", Params: map[string]float64{"bands": 2}},
	}
	tab, err := Run(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tab.Rows {
		if r.Vals[0] <= 0 {
			t.Errorf("row %q: mean FCT %v, want > 0", r.Label, r.Vals[0])
		}
	}
}

// TestRowQdiscOverride pins the per-row `qdisc:` field end to end: the
// same runner under different disciplines is a valid spec, and the
// override is part of the row's cache-key material so memoized cells
// can never serve one discipline's value for another.
func TestRowQdiscOverride(t *testing.T) {
	s := packetSpec()
	s.Protocols = []ProtoSpec{
		{Runner: "TCP"},
		{Runner: "TCP", Label: "TCP+prio", Qdisc: &QdiscSpec{Name: "prio", Params: map[string]float64{"bands": 4}}},
		{Runner: "TCP", Label: "TCP+ecn", Qdisc: &QdiscSpec{Name: "ecn"}},
	}
	eng, err := compile(s, Opts{})
	if err != nil {
		t.Fatal(err)
	}
	if q := eng.rows[0].at(0).plan.Qdisc; q != "" {
		t.Errorf("plain row has qdisc key %q", q)
	}
	if k := eng.rows[1].at(0).plan; k.Qdisc != "prio" || k.QdiscParams["bands"] != 4 {
		t.Errorf("override row key %+v, want prio/bands=4", k)
	}
	seen := map[string]bool{}
	for ri := range eng.rows {
		h := eng.cellKeyHash(ri, 0, 1)
		if seen[h] {
			t.Fatalf("row %d shares a cell cache key with another qdisc", ri)
		}
		seen[h] = true
	}

	tab := eng.run(Opts{})
	for _, r := range tab.Rows {
		if r.Vals[0] <= 0 {
			t.Errorf("row %q: %v, want > 0", r.Label, r.Vals[0])
		}
	}
}

func TestQdiscSpecErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
		want   string
	}{
		{"unknown qdisc", func(s *Spec) {
			s.Protocols = []ProtoSpec{{Runner: "TCP", Qdisc: &QdiscSpec{Name: "nope"}}}
		}, `unknown qdisc "nope"`},
		{"unknown qdisc param", func(s *Spec) {
			s.Protocols = []ProtoSpec{{Runner: "TCP", Qdisc: &QdiscSpec{Name: "prio", Params: map[string]float64{"nope": 1}}}}
		}, `unknown parameter "nope"`},
		{"qdisc on flow-level runner", func(s *Spec) {
			s.Protocols = []ProtoSpec{{Runner: "flow:RCP", Qdisc: &QdiscSpec{Name: "prio"}}}
		}, "needs a packet-level runner"},
		{"qdisc on analytic row", func(s *Spec) {
			s.Protocols = []ProtoSpec{{Analytic: "optimal-app-throughput", Qdisc: &QdiscSpec{Name: "prio"}}}
		}, "qdisc has no effect"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := packetSpec()
			tc.mutate(s)
			_, err := Run(s, Opts{})
			if err == nil {
				t.Fatal("Run succeeded on a malformed spec")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
