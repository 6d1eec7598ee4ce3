package topo

import (
	"cmp"
	"fmt"
	"math"

	"pdq/internal/params"
)

// Builder is a registered topology family, constructible by name from a
// declarative parameter map (the scenario layer's topology specs).
type Builder struct {
	Name string
	Doc  string
	// Params documents the accepted parameter names with their defaults.
	// Build/Size/RackOf receive a map that has been defaulted and
	// validated against it.
	Params map[string]float64
	// Build constructs the topology.
	Build func(p map[string]float64, seed int64) *Topology
	// Size gives what the family builds for p, without building: workload
	// sizing and fault targets need the counts up front (Hosts, Switches),
	// and the registry refuses more than maxCables links.
	Size func(p map[string]float64) size
	// RackOf returns the host→rack mapping for p, or nil when the family
	// has no rack structure the workload patterns should see.
	RackOf func(p map[string]float64) func(int) int
	// Check rejects parameter values Build cannot honour.
	Check func(p map[string]float64) error
}

// Hosts returns the host count the family builds for p.
func (b Builder) Hosts(p map[string]float64) int { return int(b.Size(p).hosts) }

// Switches returns the switch count the family builds for p.
func (b Builder) Switches(p map[string]float64) int { return int(b.Size(p).switches) }

// maxCables bounds the duplex links of a registered topology: every cell
// builds its topology in memory, and past this size a mistyped parameter
// is likelier than an experiment. A k=64 fat-tree has 196 608.
const maxCables = 1 << 18

// decl declares the family to the registry, whose check runs the family's
// Check and then refuses a topology of more than maxCables duplex links.
func (b Builder) decl() params.Decl {
	return params.Decl{Name: b.Name, Params: b.Params, Check: func(p map[string]float64) error {
		if err := b.Check(p); err != nil {
			return err
		}
		if n := b.Size(p).cables; n > maxCables {
			return fmt.Errorf("%.0f links: more than the %d a topology may have", n, maxCables)
		}
		return nil
	}}
}

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

// builders is the table of topology families.
var builders = params.NewRegistry("topology", Builder.decl, []Builder{
	{
		Name:   "single-bottleneck",
		Doc:    "Fig. 2b star: `senders` hosts plus one receiver on a single switch",
		Params: map[string]float64{"senders": 5},
		Build: func(p map[string]float64, seed int64) *Topology {
			return SingleBottleneck(int(p["senders"]), seed)
		},
		Size:  func(p map[string]float64) size { return singleBottleneckSize(p["senders"]) },
		Check: func(p map[string]float64) error { return params.Int("senders", p["senders"], 1, maxCables) },
	},
	{
		Name:   "single-rooted-tree",
		Doc:    "Fig. 2a two-level tree: `tors` ToR switches with `per_tor` servers each",
		Params: map[string]float64{"tors": 4, "per_tor": 3},
		Build: func(p map[string]float64, seed int64) *Topology {
			return SingleRootedTree(int(p["tors"]), int(p["per_tor"]), seed)
		},
		Size: func(p map[string]float64) size { return singleRootedTreeSize(p["tors"], p["per_tor"]) },
		Check: func(p map[string]float64) error {
			return cmp.Or(params.Int("tors", p["tors"], 1, maxCables), params.Int("per_tor", p["per_tor"], 1, maxCables))
		},
		RackOf: func(p map[string]float64) func(int) int {
			per := int(p["per_tor"])
			return func(h int) int { return h / per }
		},
	},
	{
		Name:   "fat-tree",
		Doc:    "k-ary fat-tree (k³/4 hosts); `oversub` > 1 derates the core links",
		Params: map[string]float64{"k": 4, "oversub": 1},
		Build: func(p map[string]float64, seed int64) *Topology {
			return FatTreeOversub(int(p["k"]), p["oversub"], seed)
		},
		Size: func(p map[string]float64) size { return fatTreeSize(p["k"]) },
		Check: func(p map[string]float64) error {
			if k := p["k"]; math.Mod(k, 2) != 0 {
				return fmt.Errorf("parameter \"k\" = %v: want an even integer", k)
			}
			return params.Int("k", p["k"], 2, maxCables)
		},
	},
	{
		Name:   "bcube",
		Doc:    "BCube(n, k): n^(k+1) servers with k+1 ports each",
		Params: map[string]float64{"n": 2, "k": 3},
		Build: func(p map[string]float64, seed int64) *Topology {
			return BCube(int(p["n"]), int(p["k"]), seed)
		},
		Size: func(p map[string]float64) size { return bcubeSize(p["n"], p["k"]) },
		Check: func(p map[string]float64) error {
			return cmp.Or(params.Int("n", p["n"], 2, maxCables), params.Int("k", p["k"], 0, maxCables))
		},
	},
	{
		Name:   "jellyfish",
		Doc:    "random regular graph of `switches` switches, `degree` network ports, `hosts_per_switch` servers each",
		Params: map[string]float64{"switches": 18, "degree": 16, "hosts_per_switch": 8},
		Build: func(p map[string]float64, seed int64) *Topology {
			return Jellyfish(int(p["switches"]), int(p["degree"]), int(p["hosts_per_switch"]), seed)
		},
		Size: func(p map[string]float64) size {
			return jellyfishSize(p["switches"], p["degree"], p["hosts_per_switch"])
		},
		Check: func(p map[string]float64) error {
			if n, d := p["switches"], p["degree"]; d >= n || math.Mod(n*d, 2) != 0 {
				return fmt.Errorf("degree %v on %v switches: want degree < switches and an even switches×degree", d, n)
			}
			return cmp.Or(params.Int("switches", p["switches"], 0, maxCables), params.Int("degree", p["degree"], 0, maxCables),
				params.Int("hosts_per_switch", p["hosts_per_switch"], 0, maxCables))
		},
	},
})
