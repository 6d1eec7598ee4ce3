package topo

import (
	"fmt"
	"math"
	"math/rand"

	"pdq/internal/netsim"
)

// size is what a topology family builds: hosts, switches and duplex links
// (cables). One function per family gives it, for the registry's counts
// and cable bound (Builder.Size) and for the builder's slabs (newSized);
// it is float64 so that the bound can apply it to any parameter value.
type size struct{ hosts, switches, cables float64 }

func singleBottleneckSize(senders float64) size { return size{senders + 1, 1, senders + 1} }

func singleRootedTreeSize(tors, perTor float64) size {
	return size{tors * perTor, tors + 1, tors * (perTor + 1)}
}

func fatTreeSize(k float64) size { return size{k * k * k / 4, 5 * k * k / 4, 3 * k * k * k / 4} }

func bcubeSize(n, k float64) size {
	return size{math.Pow(n, k+1), (k + 1) * math.Pow(n, k), (k + 1) * math.Pow(n, k+1)}
}

func jellyfishSize(switches, degree, hostsPer float64) size {
	return size{switches * hostsPer, switches, switches * (hostsPer + degree/2)}
}

// SingleBottleneck builds Fig. 2b: nSenders hosts attached to one switch,
// plus one receiver host; the switch→receiver link is the bottleneck.
// Hosts[0..nSenders-1] are the senders, Hosts[nSenders] is the receiver.
func SingleBottleneck(nSenders int, seed int64) *Topology {
	t := newSized("single-bottleneck", seed, singleBottleneckSize(float64(nSenders)))
	sw := t.addSwitch()
	for i := 0; i < nSenders; i++ {
		t.connect(t.addHost(), sw)
	}
	t.connect(t.addHost(), sw) // receiver
	return t
}

// SingleRootedTree builds Fig. 2a: a root switch, tors top-of-rack switches
// and perTor servers per ToR; all links 1 Gbps. The paper's default is
// tors=4, perTor=3 (17 nodes, 12 servers).
func SingleRootedTree(tors, perTor int, seed int64) *Topology {
	t := newSized("single-rooted-tree", seed, singleRootedTreeSize(float64(tors), float64(perTor)))
	root := t.addSwitch()
	for i := 0; i < tors; i++ {
		tor := t.addSwitch()
		t.connect(tor, root)
		for j := 0; j < perTor; j++ {
			t.connect(t.addHost(), tor)
		}
	}
	return t
}

// FatTree builds a k-ary fat-tree (Al-Fares et al. [2]): k pods, each with
// k/2 edge and k/2 aggregation switches, (k/2)² core switches, and k³/4
// hosts. k must be even and ≥ 2.
func FatTree(k int, seed int64) *Topology {
	if k < 2 || k%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree k=%d must be even and >= 2", k))
	}
	t := newSized(fmt.Sprintf("fat-tree-k%d", k), seed, fatTreeSize(float64(k)))
	half := k / 2
	// Core switches indexed [row][col]; aggregation switch i of every pod
	// connects to all core switches in row i.
	core := make([][]*netsim.Switch, half)
	for i := range core {
		core[i] = make([]*netsim.Switch, half)
		for j := range core[i] {
			core[i][j] = t.addSwitch()
		}
	}
	for p := 0; p < k; p++ {
		aggs := make([]*netsim.Switch, half)
		for i := 0; i < half; i++ {
			aggs[i] = t.addSwitch()
			for j := 0; j < half; j++ {
				t.connect(aggs[i], core[i][j])
			}
		}
		for e := 0; e < half; e++ {
			edge := t.addSwitch()
			for i := 0; i < half; i++ {
				t.connect(edge, aggs[i])
			}
			for h := 0; h < half; h++ {
				t.connect(t.addHost(), edge)
			}
		}
	}
	return t
}

// FatTreeOversub builds a k-ary fat-tree whose core layer is
// oversubscribed by the given factor: every aggregation↔core link runs at
// 1/factor of the default rate, so the aggregate core bandwidth is
// factor× smaller than the edge demand (a common production cost
// trade-off the non-blocking paper topology does not model). factor <= 1
// leaves the tree non-blocking and is identical to FatTree.
func FatTreeOversub(k int, factor float64, seed int64) *Topology {
	t := FatTree(k, seed)
	if factor <= 1 {
		return t
	}
	// Core switches are the first (k/2)² switches the builder creates;
	// precisely the links touching them form the core layer.
	half := k / 2
	isCore := make([]bool, t.Net.NumNodes())
	for _, sw := range t.Switches[:half*half] {
		isCore[sw.ID()] = true
	}
	for _, l := range t.Net.Links() {
		// Each duplex pair is two directed links and SetRate covers the
		// peer, so derate one direction only.
		if l.From.ID() < l.To.ID() && (isCore[l.From.ID()] || isCore[l.To.ID()]) {
			l.SetRate(int64(float64(l.Rate) / factor))
		}
	}
	return t
}

// BCube builds BCube(n, k) (Guo et al. [13]): n^(k+1) servers, each with
// k+1 ports, and (k+1)·n^k n-port switches arranged in k+1 levels. The
// paper's M-PDQ evaluation uses BCube with 4 server interfaces, i.e. n=2,
// k=3 ("BCube(2,3)", 16 servers).
func BCube(n, k int, seed int64) *Topology {
	if n < 2 || k < 0 {
		panic(fmt.Sprintf("topo: bcube n=%d k=%d invalid", n, k))
	}
	t := newSized(fmt.Sprintf("bcube-n%d-k%d", n, k), seed, bcubeSize(float64(n), float64(k)))
	nHosts := pow(n, k+1)
	for i := 0; i < nHosts; i++ {
		t.addHost()
	}
	// Level l has n^k switches; the switch at level l with index s connects
	// the n servers whose (k+1)-digit base-n address agrees with s on all
	// digits except digit l.
	nSwPerLevel := pow(n, k)
	for l := 0; l <= k; l++ {
		for s := 0; s < nSwPerLevel; s++ {
			sw := t.addSwitch()
			hi := s / pow(n, l) // address digits above position l
			lo := s % pow(n, l) // address digits below position l
			for d := 0; d < n; d++ {
				addr := (hi*n+d)*pow(n, l) + lo
				t.connect(t.Hosts[addr], sw)
			}
		}
	}
	return t
}

func pow(b, e int) int {
	r := 1
	for i := 0; i < e; i++ {
		r *= b
	}
	return r
}

// Jellyfish builds a Jellyfish topology (Singla et al. [17]): nSwitches
// switches forming a random netDegree-regular graph, each also hosting
// hostsPerSwitch servers. The paper uses 24-port switches with a 2:1
// network-to-server port ratio (netDegree=16, hostsPerSwitch=8).
// Construction is deterministic for a given seed.
func Jellyfish(nSwitches, netDegree, hostsPerSwitch int, seed int64) *Topology {
	if nSwitches*netDegree%2 != 0 {
		panic("topo: jellyfish nSwitches*netDegree must be even")
	}
	if netDegree >= nSwitches {
		panic("topo: jellyfish degree must be < switch count")
	}
	t := newSized(fmt.Sprintf("jellyfish-%dsw", nSwitches), seed,
		jellyfishSize(float64(nSwitches), float64(netDegree), float64(hostsPerSwitch)))
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nSwitches; i++ {
		sw := t.addSwitch()
		for j := 0; j < hostsPerSwitch; j++ {
			t.connect(t.addHost(), sw)
		}
	}
	for _, e := range regularGraph(nSwitches, netDegree, rng) {
		t.connect(t.Switches[e[0]], t.Switches[e[1]])
	}
	return t
}

// The configuration model draws a simple d-regular graph with probability
// about e^(-(d²-1)/4) per pairing: a few percent at d = 4, so regularGraph
// allows pairingAttempts restarts (the budget the generator has always had)
// — and below 10⁻⁸ over that whole budget past maxPairedDegree (10⁻²⁸ per
// pairing at the paper's d = 16), where drawing pairings is wasted work.
const (
	pairingAttempts = 20001
	maxPairedDegree = 10
)

// regularGraph draws a simple d-regular graph on n vertices. Up to
// maxPairedDegree the pairings are drawn first, so every (n, d, seed) the
// restart budget ever served keeps its edge list; higher degrees, and any
// seed whose pairings all collide, are grown edge by edge.
func regularGraph(n, d int, rng *rand.Rand) [][2]int {
	if d <= maxPairedDegree {
		for attempt := 0; attempt < pairingAttempts; attempt++ {
			if edges, ok := pairRegular(n, d, rng); ok {
				return edges
			}
		}
	}
	return growRegular(n, d, rng)
}

// growRegular builds a simple d-regular graph on n vertices the way the
// Jellyfish paper does: join a random pair of non-adjacent vertices that
// both have a free port until no such pair is left; if free ports remain
// then (their owners are all adjacent to each other), remove a random edge,
// which frees two more ports, and carry on.
func growRegular(n, d int, rng *rand.Rand) [][2]int {
	adjacent := make([]bool, n*n)
	degree := make([]int, n)
	set := func(e [2]int, on bool) {
		adjacent[e[0]*n+e[1]] = on
		delta := 1
		if !on {
			delta = -1
		}
		degree[e[0]] += delta
		degree[e[1]] += delta
	}
	edges := make([][2]int, 0, n*d/2)
	var open [][2]int // joinable pairs, u < v
	for steps := 0; len(edges) < n*d/2; steps++ {
		if steps > 1000*n*d {
			panic("topo: jellyfish generation did not converge")
		}
		open = open[:0]
		for u := 0; u < n; u++ {
			if degree[u] == d {
				continue
			}
			for v := u + 1; v < n; v++ {
				if degree[v] < d && !adjacent[u*n+v] {
					open = append(open, [2]int{u, v})
				}
			}
		}
		if len(open) > 0 {
			e := open[rng.Intn(len(open))]
			set(e, true)
			edges = append(edges, e)
			continue
		}
		i := rng.Intn(len(edges))
		set(edges[i], false)
		edges = append(edges[:i], edges[i+1:]...)
	}
	return edges
}

// pairRegular attempts to draw a simple d-regular graph on n vertices with
// the configuration model; ok=false means a self-loop or duplicate edge
// forced a restart.
func pairRegular(n, d int, rng *rand.Rand) ([][2]int, bool) {
	stubs := make([]int, 0, n*d)
	for v := 0; v < n; v++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, v)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	seen := map[[2]int]bool{}
	edges := make([][2]int, 0, n*d/2)
	for i := 0; i < len(stubs); i += 2 {
		a, b := stubs[i], stubs[i+1]
		if a == b {
			return nil, false
		}
		if a > b {
			a, b = b, a
		}
		key := [2]int{a, b}
		if seen[key] {
			return nil, false
		}
		seen[key] = true
		edges = append(edges, key)
	}
	return edges, true
}
