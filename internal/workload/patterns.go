package workload

import (
	"fmt"
	"math/rand"

	"pdq/internal/sim"
)

// Pattern assigns a destination host to each sending host, defining the
// sending patterns of §5.3. hosts is the number of hosts in the topology;
// rackOf maps a host index to its rack (top-of-rack switch) index, used by
// the staggered-probability pattern.
type Pattern interface {
	// Pairs returns (src, dst) pairs, one per flow "slot". Implementations
	// must be deterministic given rng.
	Pairs(hosts int, rackOf func(int) int, rng *rand.Rand) [][2]int
	Name() string
}

// Aggregation sends from the first N-1 hosts to the last host (the
// aggregator), the query-aggregation scenario of §5.2.
type Aggregation struct{}

// Pairs implements Pattern.
func (Aggregation) Pairs(hosts int, _ func(int) int, _ *rand.Rand) [][2]int {
	out := make([][2]int, 0, hosts-1)
	for s := 0; s < hosts-1; s++ {
		out = append(out, [2]int{s, hosts - 1})
	}
	return out
}

// Name implements Pattern.
func (Aggregation) Name() string { return "Aggregation" }

// Stride sends from host x to host (x+I) mod N.
type Stride struct{ I int }

// Pairs implements Pattern.
func (p Stride) Pairs(hosts int, _ func(int) int, _ *rand.Rand) [][2]int {
	out := make([][2]int, 0, hosts)
	for s := 0; s < hosts; s++ {
		d := (s + p.I) % hosts
		if d != s {
			out = append(out, [2]int{s, d})
		}
	}
	return out
}

// Name implements Pattern.
func (p Stride) Name() string { return fmt.Sprintf("Stride(%d)", p.I) }

// Staggered sends to a host under the same top-of-rack switch with
// probability P, and to a uniformly random other host otherwise.
type Staggered struct{ P float64 }

// Pairs implements Pattern.
func (p Staggered) Pairs(hosts int, rackOf func(int) int, rng *rand.Rand) [][2]int {
	out := make([][2]int, 0, hosts)
	var sameRack, others []int // reused across sources; pool aliases one
	for s := 0; s < hosts; s++ {
		sameRack, others = sameRack[:0], others[:0]
		for d := 0; d < hosts; d++ {
			if d == s {
				continue
			}
			if rackOf != nil && rackOf(d) == rackOf(s) {
				sameRack = append(sameRack, d)
			} else {
				others = append(others, d)
			}
		}
		pool := others
		if len(sameRack) > 0 && rng.Float64() < p.P {
			pool = sameRack
		}
		if len(pool) == 0 {
			pool = append(sameRack, others...)
		}
		out = append(out, [2]int{s, pool[rng.Intn(len(pool))]})
	}
	return out
}

// Name implements Pattern.
func (p Staggered) Name() string { return fmt.Sprintf("StaggeredProb(%g)", p.P) }

// Permutation is random permutation traffic: every host sends to exactly
// one other host and receives from exactly one (a fixed-point-free
// permutation).
type Permutation struct{}

// Pairs implements Pattern.
func (Permutation) Pairs(hosts int, _ func(int) int, rng *rand.Rand) [][2]int {
	perm := derangement(hosts, rng)
	out := make([][2]int, hosts)
	for s := 0; s < hosts; s++ {
		out[s] = [2]int{s, perm[s]}
	}
	return out
}

// Name implements Pattern.
func (Permutation) Name() string { return "RandomPermutation" }

// derangement returns a uniformly random permutation with no fixed points,
// by rejection sampling (expected ~e attempts).
func derangement(n int, rng *rand.Rand) []int {
	if n < 2 {
		panic("workload: derangement needs n >= 2")
	}
	for {
		p := rng.Perm(n)
		ok := true
		for i, v := range p {
			if i == v {
				ok = false
				break
			}
		}
		if ok {
			return p
		}
	}
}

// Gen is a flow-set generator combining a pattern, a size distribution and
// deadline parameters.
type Gen struct {
	Rng          *rand.Rand
	Sizes        SizeDist
	MeanDeadline sim.Time // 0 = deadline-unconstrained flows
	// DeadlineIf, when non-nil, restricts deadlines to flows for which it
	// returns true (e.g. VL2 short flows, §5.3). Ignored when
	// MeanDeadline is 0.
	DeadlineIf func(size int64) bool

	nextID uint64
}

// NewGen returns a generator with a deterministic RNG.
func NewGen(seed int64, sizes SizeDist, meanDeadline sim.Time) *Gen {
	return &Gen{Rng: rand.New(rand.NewSource(seed)), Sizes: sizes, MeanDeadline: meanDeadline}
}

// Flow draws one flow between src and dst starting at start.
func (g *Gen) Flow(src, dst int, start sim.Time) Flow {
	g.nextID++
	f := Flow{ID: g.nextID, Src: src, Dst: dst, Start: start, Size: g.Sizes.Sample(g.Rng)}
	if g.MeanDeadline > 0 && (g.DeadlineIf == nil || g.DeadlineIf(f.Size)) {
		f.Deadline = ExpDeadline(g.Rng, g.MeanDeadline)
	}
	return f
}

// Batch draws n flows, all starting at start, spread over the pattern's
// pairs round-robin (the paper's query aggregation assigns f flows to n
// senders so each has ⌊f/n⌋ or ⌈f/n⌉, which round-robin achieves).
func (g *Gen) Batch(n int, pat Pattern, hosts int, rackOf func(int) int, start sim.Time) []Flow {
	pairs := pat.Pairs(hosts, rackOf, g.Rng)
	if len(pairs) == 0 {
		panic("workload: pattern produced no pairs")
	}
	out := make([]Flow, 0, n)
	for i := 0; i < n; i++ {
		p := pairs[i%len(pairs)]
		out = append(out, g.Flow(p[0], p[1], start))
	}
	return out
}

// Poisson draws flows arriving as a Poisson process of the given rate
// (flows/sec) over [0, horizon), with src/dst drawn per arrival from the
// pattern's pairs.
func (g *Gen) Poisson(rate float64, horizon sim.Time, pat Pattern, hosts int, rackOf func(int) int) []Flow {
	pairs := pat.Pairs(hosts, rackOf, g.Rng)
	if len(pairs) == 0 {
		panic("workload: pattern produced no pairs")
	}
	var out []Flow
	t := sim.Time(0)
	for {
		dt := sim.Time(g.Rng.ExpFloat64() / rate * float64(sim.Second))
		t += dt
		if t >= horizon {
			return out
		}
		p := pairs[g.Rng.Intn(len(pairs))]
		out = append(out, g.Flow(p[0], p[1], t))
	}
}
