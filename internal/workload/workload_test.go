package workload

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"pdq/internal/sim"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(1)) }

func TestUniformMeanRange(t *testing.T) {
	u := UniformMean(100 << 10)
	if u.Lo != 2<<10 || u.Hi != 198<<10 {
		t.Fatalf("UniformMean(100K) = [%d, %d], want [2K, 198K]", u.Lo, u.Hi)
	}
	r := rng()
	var sum float64
	const N = 20000
	for i := 0; i < N; i++ {
		s := u.Sample(r)
		if s < u.Lo || s > u.Hi {
			t.Fatalf("sample %d out of range", s)
		}
		sum += float64(s)
	}
	mean := sum / N
	if mean < 0.97*u.Mean() || mean > 1.03*u.Mean() {
		t.Errorf("empirical mean %.0f vs nominal %.0f", mean, u.Mean())
	}
}

func TestUniformDegenerate(t *testing.T) {
	u := Uniform{Lo: 5, Hi: 5}
	if u.Sample(rng()) != 5 {
		t.Fatal("degenerate uniform")
	}
	if UniformMean(1).Lo != MinFlowSize {
		t.Fatal("tiny mean should clamp")
	}
}

func TestParetoHeavyTail(t *testing.T) {
	p := Pareto{Alpha: 1.1, MeanSize: 100 << 10}
	r := rng()
	var small, big int
	for i := 0; i < 20000; i++ {
		s := p.Sample(r)
		if s < MinFlowSize {
			t.Fatalf("sample below floor: %d", s)
		}
		if s < 50<<10 {
			small++
		}
		if s > 1<<20 {
			big++
		}
	}
	if small < 10000 {
		t.Errorf("Pareto(1.1): only %d/20000 samples below 50K; tail not mice-dominated", small)
	}
	if big == 0 {
		t.Error("Pareto(1.1): no sample above 1MB; tail too light")
	}
}

func TestVL2Shape(t *testing.T) {
	d := VL2SizeDist{}
	r := rng()
	const N = 50000
	var mice int
	var totalBytes, elephantBytes float64
	for i := 0; i < N; i++ {
		s := d.Sample(r)
		if s < 100<<10 {
			mice++
		}
		totalBytes += float64(s)
		if s >= 1<<20 {
			elephantBytes += float64(s)
		}
	}
	if frac := float64(mice) / N; frac < 0.9 {
		t.Errorf("VL2: mice fraction %.2f, want most flows small", frac)
	}
	if frac := elephantBytes / totalBytes; frac < 0.5 {
		t.Errorf("VL2: elephants carry %.2f of bytes, want majority", frac)
	}
}

func TestEDU1Shape(t *testing.T) {
	d := EDU1SizeDist{}
	r := rng()
	var tiny int
	const N = 20000
	for i := 0; i < N; i++ {
		if d.Sample(r) < 4<<10 {
			tiny++
		}
	}
	if frac := float64(tiny) / N; frac < 0.5 {
		t.Errorf("EDU1: tiny fraction %.2f, want mostly tiny flows", frac)
	}
}

func TestExpDeadlineFloor(t *testing.T) {
	r := rng()
	var atFloor int
	var sum float64
	const N = 20000
	for i := 0; i < N; i++ {
		d := ExpDeadline(r, 20*sim.Millisecond)
		if d < DeadlineFloor {
			t.Fatalf("deadline %v below 3ms floor", d)
		}
		if d == DeadlineFloor {
			atFloor++
		}
		sum += float64(d)
	}
	if atFloor == 0 {
		t.Error("floor never applied; clamping untested")
	}
	mean := sum / N
	want := float64(20 * sim.Millisecond)
	if mean < 0.9*want || mean > 1.25*want {
		t.Errorf("empirical mean deadline %.1fms", mean/float64(sim.Millisecond))
	}
}

func TestAggregationPairs(t *testing.T) {
	ps := Aggregation{}.Pairs(12, nil, rng())
	if len(ps) != 11 {
		t.Fatalf("pairs = %d, want 11", len(ps))
	}
	for _, p := range ps {
		if p[1] != 11 || p[0] == 11 {
			t.Fatalf("bad aggregation pair %v", p)
		}
	}
}

func TestStridePairs(t *testing.T) {
	ps := Stride{I: 3}.Pairs(12, nil, rng())
	for _, p := range ps {
		if p[1] != (p[0]+3)%12 {
			t.Fatalf("bad stride pair %v", p)
		}
	}
	// Stride(N) would map everyone to themselves: zero pairs.
	if got := len(Stride{I: 12}.Pairs(12, nil, rng())); got != 0 {
		t.Fatalf("Stride(N) pairs = %d, want 0", got)
	}
}

func TestStaggeredPairs(t *testing.T) {
	rackOf := func(h int) int { return h / 3 } // 4 racks of 3
	r := rng()
	sameRack := 0
	const iters = 200
	total := 0
	for it := 0; it < iters; it++ {
		for _, p := range (Staggered{P: 0.7}).Pairs(12, rackOf, r) {
			if p[0] == p[1] {
				t.Fatal("self pair")
			}
			total++
			if rackOf(p[0]) == rackOf(p[1]) {
				sameRack++
			}
		}
	}
	frac := float64(sameRack) / float64(total)
	if frac < 0.6 || frac > 0.8 {
		t.Errorf("staggered(0.7): same-rack fraction %.2f", frac)
	}
}

func TestPermutationIsDerangement(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ps := Permutation{}.Pairs(12, nil, r)
		if len(ps) != 12 {
			return false
		}
		seenDst := map[int]bool{}
		for _, p := range ps {
			if p[0] == p[1] || seenDst[p[1]] {
				return false
			}
			seenDst[p[1]] = true
		}
		return len(seenDst) == 12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGenBatchRoundRobin(t *testing.T) {
	g := NewGen(1, UniformMean(100<<10), 20*sim.Millisecond)
	flows := g.Batch(25, Aggregation{}, 12, nil, 0)
	if len(flows) != 25 {
		t.Fatalf("got %d flows", len(flows))
	}
	perSender := map[int]int{}
	for _, f := range flows {
		perSender[f.Src]++
		if !f.HasDeadline() {
			t.Fatal("expected deadline-constrained flows")
		}
		if f.Deadline < DeadlineFloor {
			t.Fatal("deadline below floor")
		}
	}
	// 25 flows over 11 senders: each sender has 2 or 3.
	for s, c := range perSender {
		if c < 2 || c > 3 {
			t.Fatalf("sender %d has %d flows, want 2 or 3", s, c)
		}
	}
}

func TestGenUniqueIDs(t *testing.T) {
	g := NewGen(1, UniformMean(100<<10), 0)
	flows := g.Batch(50, Permutation{}, 12, nil, 0)
	seen := map[uint64]bool{}
	for _, f := range flows {
		if seen[f.ID] {
			t.Fatal("duplicate flow ID")
		}
		seen[f.ID] = true
		if f.HasDeadline() {
			t.Fatal("deadline on unconstrained flow")
		}
	}
}

func TestDeadlineIf(t *testing.T) {
	g := NewGen(1, VL2SizeDist{}, 20*sim.Millisecond)
	g.DeadlineIf = func(size int64) bool { return size < ShortFlowCutoff }
	flows := g.Batch(500, Permutation{}, 12, nil, 0)
	for _, f := range flows {
		if (f.Size < ShortFlowCutoff) != f.HasDeadline() {
			t.Fatalf("flow size %d deadline %v mismatch", f.Size, f.Deadline)
		}
	}
}

func TestPoissonArrivals(t *testing.T) {
	g := NewGen(1, UniformMean(100<<10), 0)
	flows := g.Poisson(1000, sim.Second, Permutation{}, 12, nil)
	// Expect ~1000 arrivals in 1s.
	if len(flows) < 850 || len(flows) > 1150 {
		t.Errorf("Poisson(1000/s, 1s) produced %d flows", len(flows))
	}
	last := sim.Time(-1)
	for _, f := range flows {
		if f.Start <= last && last >= 0 && f.Start < last {
			t.Fatal("arrivals not sorted")
		}
		if f.Start >= sim.Second {
			t.Fatal("arrival beyond horizon")
		}
		last = f.Start
	}
}

func TestResultAccessors(t *testing.T) {
	f := Flow{ID: 1, Size: 1000, Start: 10 * sim.Millisecond, Deadline: 5 * sim.Millisecond}
	r := workloadResult(f, 12*sim.Millisecond)
	if !r.Done() || r.FCT() != 2*sim.Millisecond || !r.MetDeadline() {
		t.Fatalf("accessors wrong: %+v", r)
	}
	late := workloadResult(f, 20*sim.Millisecond)
	if late.MetDeadline() {
		t.Fatal("late flow met deadline")
	}
	unfinished := Result{Flow: f, Finish: -1}
	if unfinished.Done() || unfinished.MetDeadline() {
		t.Fatal("unfinished flow counted as done")
	}
	terminated := Result{Flow: f, Finish: 12 * sim.Millisecond, Terminated: true}
	if terminated.Done() {
		t.Fatal("terminated flow counted as done")
	}
	noDeadline := Flow{ID: 2, Size: 10}
	if noDeadline.AbsDeadline() != sim.MaxTime {
		t.Fatal("AbsDeadline of unconstrained flow")
	}
}

func workloadResult(f Flow, finish sim.Time) Result { return Result{Flow: f, Finish: finish} }

// TestGenOnReseededSource pins what the scenario layer's recycled generator
// sources stand on: a used source, reseeded, draws the flow set a fresh
// rand.NewSource of that seed draws, flow for flow.
func TestGenOnReseededSource(t *testing.T) {
	used := rand.New(rand.NewSource(99))
	for seed := int64(1); seed <= 20; seed++ {
		want := NewGen(seed, UniformMean(100<<10), MeanDeadlineDflt).Poisson(4000, 10*sim.Millisecond, Permutation{}, 16, nil)
		used.Seed(seed)
		g := &Gen{Rng: used, Sizes: UniformMean(100 << 10), MeanDeadline: MeanDeadlineDflt}
		got := g.Poisson(4000, 10*sim.Millisecond, Permutation{}, 16, nil)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: reseeded source drew %d flows, a fresh one %d, or others", seed, len(got), len(want))
		}
	}
}
