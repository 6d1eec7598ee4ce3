package topo

import "pdq/internal/params"

// Builder is a registered topology family, constructible by name from a
// declarative parameter map (the scenario layer's topology specs).
type Builder struct {
	Name string
	Doc  string
	// Params documents the accepted parameter names with their defaults.
	// Build/Hosts/RackOf receive a map that has been defaulted and
	// validated against it.
	Params map[string]float64
	// Build constructs the topology.
	Build func(p map[string]float64, seed int64) *Topology
	// Hosts returns the host count the family produces for p, without
	// building (workload sizing needs it up front).
	Hosts func(p map[string]float64) int
	// RackOf returns the host→rack mapping for p, or nil when the family
	// has no rack structure the workload patterns should see.
	RackOf func(p map[string]float64) func(int) int
}

var builders = params.NewRegistry[Builder]("topology")

// RegisterBuilder adds a topology family to the registry; duplicate names
// panic at init time.
func RegisterBuilder(b Builder) { builders.Register(b.Name, b.Params, nil, b) }

// BuilderList returns the registered families sorted by name.
func BuilderList() []Builder { return builders.List() }

// LookupBuilder returns the registered family for name.
func LookupBuilder(name string) (Builder, bool) { return builders.Lookup(name) }

// ResolveBuilder looks a family up and validates params against it,
// returning the family and its default-filled parameters.
func ResolveBuilder(name string, given map[string]float64) (Builder, map[string]float64, error) {
	return builders.Resolve(name, given)
}

// BuildByName constructs a registered topology family from params.
func BuildByName(name string, params map[string]float64, seed int64) (*Topology, error) {
	b, p, err := builders.Resolve(name, params)
	if err != nil {
		return nil, err
	}
	return b.Build(p, seed), nil
}

// HostsByName returns the host count of a registered family for params.
func HostsByName(name string, params map[string]float64) (int, error) {
	b, p, err := builders.Resolve(name, params)
	if err != nil {
		return 0, err
	}
	return b.Hosts(p), nil
}

// RackOfByName returns the host→rack mapping of a registered family, or
// nil when it has none.
func RackOfByName(name string, params map[string]float64) (func(int) int, error) {
	b, p, err := builders.Resolve(name, params)
	if err != nil || b.RackOf == nil {
		return nil, err
	}
	return b.RackOf(p), nil
}

func init() {
	RegisterBuilder(Builder{
		Name:   "single-bottleneck",
		Doc:    "Fig. 2b star: `senders` hosts plus one receiver on a single switch",
		Params: map[string]float64{"senders": 5},
		Build: func(p map[string]float64, seed int64) *Topology {
			return SingleBottleneck(int(p["senders"]), seed)
		},
		Hosts: func(p map[string]float64) int { return int(p["senders"]) + 1 },
	})
	RegisterBuilder(Builder{
		Name:   "single-rooted-tree",
		Doc:    "Fig. 2a two-level tree: `tors` ToR switches with `per_tor` servers each",
		Params: map[string]float64{"tors": 4, "per_tor": 3},
		Build: func(p map[string]float64, seed int64) *Topology {
			return SingleRootedTree(int(p["tors"]), int(p["per_tor"]), seed)
		},
		Hosts: func(p map[string]float64) int { return int(p["tors"]) * int(p["per_tor"]) },
		RackOf: func(p map[string]float64) func(int) int {
			per := int(p["per_tor"])
			return func(h int) int { return h / per }
		},
	})
	RegisterBuilder(Builder{
		Name:   "fat-tree",
		Doc:    "k-ary fat-tree (k³/4 hosts); `oversub` > 1 derates the core links",
		Params: map[string]float64{"k": 4, "oversub": 1},
		Build: func(p map[string]float64, seed int64) *Topology {
			return FatTreeOversub(int(p["k"]), p["oversub"], seed)
		},
		Hosts: func(p map[string]float64) int { k := int(p["k"]); return k * k * k / 4 },
	})
	RegisterBuilder(Builder{
		Name:   "bcube",
		Doc:    "BCube(n, k): n^(k+1) servers with k+1 ports each",
		Params: map[string]float64{"n": 2, "k": 3},
		Build: func(p map[string]float64, seed int64) *Topology {
			return BCube(int(p["n"]), int(p["k"]), seed)
		},
		Hosts: func(p map[string]float64) int { return pow(int(p["n"]), int(p["k"])+1) },
	})
	RegisterBuilder(Builder{
		Name:   "jellyfish",
		Doc:    "random regular graph of `switches` switches, `degree` network ports, `hosts_per_switch` servers each",
		Params: map[string]float64{"switches": 18, "degree": 16, "hosts_per_switch": 8},
		Build: func(p map[string]float64, seed int64) *Topology {
			return Jellyfish(int(p["switches"]), int(p["degree"]), int(p["hosts_per_switch"]), seed)
		},
		Hosts: func(p map[string]float64) int {
			return int(p["switches"]) * int(p["hosts_per_switch"])
		},
	})
}
