package scenario

import (
	"reflect"
	"runtime"
	"testing"

	"pdq/internal/carve"
	"pdq/internal/netsim"
	"pdq/internal/obsv"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// resetSpec is one short cell on ts that leaves as much run state behind
// as a cell can: PDQ's switch logic, a prio qdisc override, a Gilbert-Elliott
// chain, a link still down at the horizon and packets still in flight.
func resetSpec(ts TopoSpec) *Spec {
	return &Spec{
		Name:     "reset",
		Topology: ts,
		Workload: WorkloadSpec{Pattern: PatternSpec{Name: "permutation"},
			Sizes: DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 500}}, CountPerHost: 1},
		Protocols: []ProtoSpec{{Runner: "PDQ(Full)", Qdisc: &QdiscSpec{Name: "prio"}}},
		Faults: []FaultSpec{
			{Kind: "link-down", Host: -1, DownMs: 0.5, UpMs: 1000},
			{Kind: "gilbert-loss", Host: 0, PGB: 0.05, PBG: 0.3, LossBad: 0.5},
		},
		Metric:    MetricSpec{Name: "mean-fct"},
		HorizonMs: 2,
	}
}

// TestResetMatchesFreshBuild runs one cell through the engine on every
// registered topology family at its defaults, and on a lossy tree, and
// requires the topology the run handed back, reset, to equal a fresh build
// at the same seed in every field its network holds, and its arena to be
// rewound: the reset network carves the run's packets again. The routing
// caches and the arena are not compared: they are what a reset keeps.
func TestResetMatchesFreshBuild(t *testing.T) {
	cases := map[string]TopoSpec{"lossy-tree": {Name: "single-rooted-tree", Loss: &LossSpec{Host: -1, Rate: 0.05}}}
	for _, b := range topo.BuilderList() {
		cases[b.Name] = TopoSpec{Name: b.Name}
	}
	for name, ts := range cases {
		t.Run(name, func(t *testing.T) {
			e, err := compile(resetSpec(ts), Opts{})
			if err != nil {
				t.Fatal(err)
			}
			// The run must leave something to reset.
			var down bool
			var taken, inFlight uint64
			var last *netsim.Packet
			e.inspect = func(tp *topo.Topology) {
				for _, l := range tp.Net.Links() {
					down = down || l.Down()
				}
				var released uint64
				taken, released = tp.Net.PacketPoolStats()
				inFlight = taken - released
				last = tp.Net.NewPacket()
			}
			e.computeAlone(0, 0, &obsv.Cell{Seed: 1})
			if !down || inFlight == 0 {
				t.Fatalf("the run left no link down (%v) or no packet in flight (%d)", down, inFlight)
			}
			col := &e.cols[0]
			spares := e.spares[topoKey{col.topo, 1}]
			if len(spares) != 1 {
				t.Fatalf("%d spare topologies after one run, want 1", len(spares))
			}
			got, want := spares[0], col.build(1)
			rewound := false
			for i := uint64(0); i <= taken && !rewound; i++ {
				rewound = got.Net.NewPacket() == last
			}
			if !rewound {
				t.Error("the reset network does not carve the run's packets again: its arena was not rewound")
			}
			got.Reset(sim.New(), 1)
			*got.Net.Arena(), *want.Net.Arena() = carve.Arena{}, carve.Arena{}
			if got.Name != want.Name || !reflect.DeepEqual(got.Net, want.Net) ||
				!reflect.DeepEqual(got.Hosts, want.Hosts) || !reflect.DeepEqual(got.Switches, want.Switches) {
				t.Error("the reset topology differs from a fresh build")
			}
		})
	}
}

// replay is what one run of a cell shows: its results, and for a packet
// runner its engine's counters and its packet pool's.
type replay struct {
	results         []workload.Result
	engine          obsv.EngineStats
	taken, released uint64
}

// TestResetTopologyReplaysFreshRun runs one cell of every registered runner
// twice through one engine: the first run on a fresh build, the second on
// the topology the first handed back, reset. The second must show what
// the first showed — the same results, and at packet level the same event
// counts and packet pool counts — and, carving from the rewound arena what
// the first carved afresh, allocate less than the first. The build is not
// counted, and the flows' routes are memoized before the first run. A
// link still down at the horizon has to come back up for the second run.
// A runner that takes no topology (flow:fluid) has no arena to rewind.
func TestResetTopologyReplaysFreshRun(t *testing.T) {
	for _, re := range RunnerList() {
		t.Run(re.Name, func(t *testing.T) {
			s := minimalSpec()
			s.Topology = TopoSpec{Name: "single-rooted-tree"}
			s.Workload = WorkloadSpec{Pattern: PatternSpec{Name: "permutation"},
				Sizes: DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 50}}, CountPerHost: 2}
			s.Protocols = []ProtoSpec{{Runner: re.Name}}
			s.HorizonMs = 20
			if re.Name != "flow:fluid" {
				s.Faults = []FaultSpec{{Kind: "link-down", Host: -1, DownMs: 0.5, UpMs: 1000}}
			}
			e, err := compile(s, Opts{})
			if err != nil {
				t.Fatal(err)
			}
			r, col, b := e.resolve(0, 0)
			k := topoKey{col.topo, 1}
			fresh := col.build(1)
			for _, f := range col.gen(1, 0, 0) {
				src, dst := fresh.Hosts[f.Src], fresh.Hosts[f.Dst]
				fresh.Routes(src, dst, 1)
				fresh.Path(src, dst)
			}
			e.putTopo(k, fresh)
			var runs [2]replay
			var mallocs [2]uint64
			var took [2]bool
			for i := range runs {
				rp := &runs[i]
				eng := fresh.Sim() // a run that takes the topology hands it back on a new engine
				e.inspect = func(tp *topo.Topology) { rp.taken, rp.released = tp.Net.PacketPoolStats() }
				var rec obsv.Cell
				flows := col.gen(1, 0, 0)
				mallocs[i] = countMallocs(func() { rp.results, _ = e.simulate(b, col, flows, 1, r.label, col.label, 0, nil, nil, &rec) })
				rp.engine = rec.Engine
				took[i] = fresh.Sim() != eng
				if len(e.spares[k]) != 1 || e.spares[k][0] != fresh || took[i] != took[0] {
					t.Fatalf("run %d: the runs did not share the one topology", i)
				}
			}
			if len(runs[0].results) == 0 || re.Level == "packet" && runs[0].engine.Fired.Value() == 0 {
				t.Fatal("the cell ran nothing")
			}
			if !reflect.DeepEqual(runs[0], runs[1]) {
				t.Errorf("the run on the reset topology differs from the first:\nfirst %+v %d/%d\nreset %+v %d/%d",
					runs[0].engine, runs[0].taken, runs[0].released, runs[1].engine, runs[1].taken, runs[1].released)
			}
			if took[0] != (re.Name != "flow:fluid" && re.Name != "test:boom") {
				t.Fatalf("took a topology: %v", took[0])
			}
			if took[0] && !raceEnabled && mallocs[1] >= mallocs[0] {
				t.Errorf("the run on the reset topology allocates %d heap objects, the first %d: want fewer", mallocs[1], mallocs[0])
			}
		})
	}
}

// countMallocs returns the heap objects f allocates, counted on one
// processor as testing.AllocsPerRun counts them, but without its warm-up
// call: a first run is what is measured.
func countMallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestJellyfishSparesKeyTheSeed runs a Jellyfish column, whose graph is
// drawn from the build seed, at two trials on one worker: the second
// trial's cell must not run on the first one's topology. The table must
// equal the one each trial gives alone, on a fresh build.
func TestJellyfishSparesKeyTheSeed(t *testing.T) {
	s := minimalSpec()
	s.Topology = TopoSpec{Name: "jellyfish", Params: map[string]float64{"switches": 8, "degree": 4, "hosts_per_switch": 2}}
	s.Workload = WorkloadSpec{Pattern: PatternSpec{Name: "permutation"},
		Sizes: DistSpec{Name: "uniform-mean", Params: map[string]float64{"mean_kb": 50}}, CountPerHost: 1}
	s.Protocols = []ProtoSpec{{Runner: "TCP"}}
	s.HorizonMs = 20
	got, err := Run(s, Opts{Seed: 1, Trials: 2, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	var alone []float64
	for rep := int64(0); rep < 2; rep++ {
		tab, err := Run(s, Opts{Seed: 1 + rep*TrialSeedStride, Parallel: 1})
		if err != nil {
			t.Fatal(err)
		}
		alone = append(alone, tab.Rows[0].Vals[0])
	}
	if alone[0] == alone[1] {
		t.Fatalf("both trials give %v: the test cannot tell the graphs apart", alone[0])
	}
	mean, stderr := summarize(alone)
	if v, e := got.Rows[0].Vals[0], got.Rows[0].Errs[0]; v != mean || e != stderr {
		t.Errorf("two trials give %v ± %v, fresh builds %v ± %v", v, e, mean, stderr)
	}
}
