package topo

import (
	"strings"
	"testing"

	"pdq/internal/netsim"
)

func TestBuildByNameDefaults(t *testing.T) {
	// Default parameters must reproduce the paper's topologies exactly.
	cases := []struct {
		name  string
		hosts int
	}{
		{"single-bottleneck", 6},
		{"single-rooted-tree", 12},
		{"fat-tree", 16},
		{"bcube", 16},
	}
	for _, tc := range cases {
		tp, err := BuildByName(tc.name, nil, 1)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(tp.Hosts) != tc.hosts {
			t.Errorf("%s built %d hosts, want %d", tc.name, len(tp.Hosts), tc.hosts)
		}
		n, err := HostsByName(tc.name, nil)
		if err != nil {
			t.Fatal(err)
		}
		if n != tc.hosts {
			t.Errorf("%s HostsByName = %d, built topology has %d", tc.name, n, tc.hosts)
		}
	}
}

func TestBuildByNameErrors(t *testing.T) {
	if _, err := BuildByName("nope", nil, 1); err == nil || !strings.Contains(err.Error(), `unknown topology "nope"`) {
		t.Errorf("unknown name error = %v", err)
	}
	if _, err := BuildByName("fat-tree", map[string]float64{"nope": 1}, 1); err == nil || !strings.Contains(err.Error(), `unknown parameter "nope"`) {
		t.Errorf("unknown param error = %v", err)
	}
}

func TestRackOfByName(t *testing.T) {
	rack, err := RackOfByName("single-rooted-tree", nil)
	if err != nil {
		t.Fatal(err)
	}
	if rack == nil {
		t.Fatal("single-rooted-tree has no rack mapping")
	}
	if rack(0) != 0 || rack(3) != 1 || rack(11) != 3 {
		t.Errorf("rack mapping wrong: %d %d %d", rack(0), rack(3), rack(11))
	}
	flat, err := RackOfByName("fat-tree", nil)
	if err != nil {
		t.Fatal(err)
	}
	if flat != nil {
		t.Error("fat-tree should expose no rack mapping (matches the figure drivers)")
	}
}

func TestFatTreeOversub(t *testing.T) {
	plain := FatTree(4, 1)
	over, err := BuildByName("fat-tree", map[string]float64{"oversub": 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Host access links keep the default rate; only core links derate.
	if got := over.Hosts[0].Access.Rate; got != plain.Hosts[0].Access.Rate {
		t.Errorf("access link derated to %d", got)
	}
	derated := 0
	for id := 0; id < over.Net.NumNodes(); id++ {
		for _, l := range over.Adjacent(netsim.NodeID(id)) {
			if l.Rate == plain.Hosts[0].Access.Rate/4 {
				derated++
			}
		}
	}
	// k=4: (k/2)²·k core↔agg duplex pairs = 16 pairs = 32 directed links.
	if derated != 32 {
		t.Errorf("%d directed links derated, want 32 (the core layer)", derated)
	}
}

// sizes gives each family's size function, which sizes its slabs.
var sizes = map[string]func(p map[string]float64) size{
	"single-bottleneck":  func(p map[string]float64) size { return singleBottleneckSize(p["senders"]) },
	"single-rooted-tree": func(p map[string]float64) size { return singleRootedTreeSize(p["tors"], p["per_tor"]) },
	"fat-tree":           func(p map[string]float64) size { return fatTreeSize(p["k"]) },
	"bcube":              func(p map[string]float64) size { return bcubeSize(p["n"], p["k"]) },
	"jellyfish": func(p map[string]float64) size {
		return jellyfishSize(p["switches"], p["degree"], p["hosts_per_switch"])
	},
}

// TestBuilderCountsMatchBuild pins every family's Hosts and Switches, and
// the cables its size function counts, to what Build makes, at its
// defaults and at a second size: the slabs are sized by those counts.
func TestBuilderCountsMatchBuild(t *testing.T) {
	other := map[string]map[string]float64{
		"single-bottleneck":  {"senders": 9},
		"single-rooted-tree": {"tors": 2, "per_tor": 5},
		"fat-tree":           {"k": 6},
		"bcube":              {"n": 3, "k": 1},
		"jellyfish":          {"switches": 10, "degree": 3, "hosts_per_switch": 2},
	}
	for _, b := range BuilderList() {
		if other[b.Name] == nil {
			t.Errorf("%s: no second size in this test", b.Name)
		}
		for _, given := range []map[string]float64{nil, other[b.Name]} {
			_, p, err := ResolveBuilder(b.Name, given)
			if err != nil {
				t.Fatalf("%s %v: %v", b.Name, given, err)
			}
			tp := b.Build(p, 1)
			if len(tp.Hosts) != b.Hosts(p) || len(tp.Switches) != b.Switches(p) {
				t.Errorf("%s %v: built %d hosts and %d switches, counted %d and %d",
					b.Name, given, len(tp.Hosts), len(tp.Switches), b.Hosts(p), b.Switches(p))
			}
			if got, want := len(tp.Net.Links()), 2*int(sizes[b.Name](p).cables); got != want {
				t.Errorf("%s %v: built %d directed links, its size counts %d", b.Name, given, got, want)
			}
		}
	}
}

// TestBuilderChecks pins the parameter values a family refuses before
// anything is built: what its builder would panic on, fractions, and
// sizes past maxCables.
func TestBuilderChecks(t *testing.T) {
	for _, c := range []struct {
		name  string
		given map[string]float64
		want  string
	}{
		{"single-bottleneck", map[string]float64{"senders": 0}, `"senders"`},
		{"single-rooted-tree", map[string]float64{"per_tor": 2.5}, `"per_tor"`},
		{"fat-tree", map[string]float64{"k": 3}, "even"},
		{"fat-tree", map[string]float64{"k": 1000}, "links"},
		{"bcube", map[string]float64{"n": 1}, `"n"`},
		{"bcube", map[string]float64{"k": 1e12}, `"k"`},
		{"bcube", map[string]float64{"k": 40}, "links"},
		{"jellyfish", map[string]float64{"switches": 3, "degree": 5}, "degree"},
		{"jellyfish", map[string]float64{"switches": 5, "degree": 3}, "even"},
	} {
		if _, _, err := ResolveBuilder(c.name, c.given); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %v: error %v, want one mentioning %s", c.name, c.given, err, c.want)
		}
	}
}
