package scenario

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/workload"
)

// resolvable is one entry of any registry a spec can name: its declared
// parameters, and try, which resolves given values against the entry —
// the registry's Resolve and Check — and, when they pass, constructs
// what the entry makes of them.
type resolvable struct {
	kind, name string
	declared   map[string]float64
	try        func(p map[string]float64) error
}

// everyRegistry lists the entries of every registry: runners, metrics,
// flow generators, topologies, patterns, size distributions and qdiscs.
// Flow generators stop at Check: their constructors draw whole flow sets.
func everyRegistry() []resolvable {
	var out []resolvable
	add := func(kind, name string, declared map[string]float64, try func(map[string]float64) error) {
		out = append(out, resolvable{kind, name, declared, try})
	}
	for _, e := range RunnerList() {
		add("runner", e.Name, e.Params, func(p map[string]float64) error {
			e, p, err := runners.Resolve(e.Name, p)
			if err == nil {
				e.Make(p, 1)
			}
			return err
		})
	}
	for _, e := range MetricList() {
		add("metric", e.Name, e.Params, func(p map[string]float64) error {
			e, p, err := metrics.Resolve(e.Name, p)
			if err == nil {
				e.Fn(fourResults, fourFlows, p)
				if e.Pair != nil {
					e.Pair(fourResults, fourResults, p)
				}
			}
			return err
		})
	}
	for _, e := range FlowGenList() {
		add("flow generator", e.Name, e.Params, func(p map[string]float64) error {
			_, _, err := flowGens.Resolve(e.Name, p)
			return err
		})
	}
	for _, b := range topo.BuilderList() {
		add("topology", b.Name, b.Params, func(p map[string]float64) error {
			b, p, err := topo.ResolveBuilder(b.Name, p)
			if err != nil {
				return err
			}
			hosts := b.Hosts(p)
			b.Switches(p)
			if b.RackOf != nil && hosts > 0 {
				rack := b.RackOf(p)
				rack(0)
				rack(hosts - 1)
			}
			return nil
		})
	}
	for _, m := range workload.PatternList() {
		add("pattern", m.Name, m.Params, func(p map[string]float64) error {
			_, err := workload.MakePattern(m.Name, p)
			return err
		})
	}
	for _, m := range workload.SizeDistList() {
		add("size distribution", m.Name, m.Params, func(p map[string]float64) error {
			d, err := workload.MakeSizeDist(m.Name, p)
			if err == nil {
				rng := rand.New(rand.NewSource(1))
				for range 64 {
					if n := d.Sample(rng); n < 1 {
						panic(fmt.Sprintf("size distribution %q accepted %v and drew a flow of %d bytes", m.Name, p, n))
					}
				}
			}
			return err
		})
	}
	for _, q := range QdiscList() {
		add("qdisc", q.Name, q.Params, func(p map[string]float64) error {
			mk, _, err := netsim.MakeQdisc(q.Name, p)
			if err == nil {
				mk()
			}
			return err
		})
	}
	return out
}

// fourFlows are four deadline flows, and fourResults their outcomes: met,
// missed, terminated and unfinished. Every metric an input resolves is
// read off them.
var (
	fourFlows = []workload.Flow{
		{ID: 1, Src: 0, Dst: 1, Size: 10 << 10, Deadline: 5 * sim.Millisecond},
		{ID: 2, Src: 1, Dst: 2, Size: 20 << 10, Start: sim.Millisecond, Deadline: 5 * sim.Millisecond},
		{ID: 3, Src: 2, Dst: 0, Size: 2 << 20, Deadline: 3 * sim.Millisecond},
		{ID: 4, Src: 0, Dst: 2, Size: 1 << 20, Start: 2 * sim.Millisecond, Deadline: 20 * sim.Millisecond},
	}
	fourResults = []workload.Result{
		{Flow: fourFlows[0], Finish: 2 * sim.Millisecond, BytesAcked: 10 << 10},
		{Flow: fourFlows[1], Finish: 9 * sim.Millisecond, BytesAcked: 20 << 10, Retransmits: 1},
		{Flow: fourFlows[2], Finish: 1 * sim.Millisecond, Terminated: true, BytesAcked: 4 << 10},
		{Flow: fourFlows[3], Finish: -1, BytesAcked: 1 << 10, Preemptions: 2},
	}
)

// FuzzRegistryResolve gives a random entry of any registry arbitrary
// parameter values — NaN, infinities, negatives, fractions, huge numbers
// — on a random subset of its declared parameters, sometimes with an
// undeclared one besides. Every input is refused with an error or
// constructs without a panic (everyRegistry), and an undeclared parameter
// is always refused. What an input constructs is exercised: every size
// distribution draws flows of at least one byte, and every metric reads
// fourResults without a panic. The seeds give every entry its defaults,
// then each special value on every parameter.
func FuzzRegistryResolve(f *testing.F) {
	all := everyRegistry()
	for i := range all {
		f.Add(uint16(i), uint8(0), 0.0, 0.0, 0.0, false)
		f.Add(uint16(i), uint8(0xff), math.NaN(), math.Inf(1), math.Inf(-1), false)
		f.Add(uint16(i), uint8(0xff), -1.0, 1e300, 2.5, false)
		f.Add(uint16(i), uint8(0), 1.0, 0.0, 0.0, true)
	}
	f.Fuzz(func(t *testing.T, pick uint16, set uint8, a, b, c float64, undeclared bool) {
		r := all[int(pick)%len(all)]
		p := map[string]float64{}
		for i, name := range slices.Sorted(maps.Keys(r.declared)) {
			if set>>(i%8)&1 != 0 {
				p[name] = []float64{a, b, c}[i%3]
			}
		}
		if undeclared {
			p["undeclared"] = a
		}
		if err := r.try(p); err == nil && undeclared {
			t.Fatalf("%s %q accepted an undeclared parameter: %v", r.kind, r.name, p)
		}
	})
}
