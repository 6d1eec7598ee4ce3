package stats

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"pdq/internal/sim"
	"pdq/internal/workload"
)

func TestMean(t *testing.T) {
	if Mean(nil) != 0 {
		t.Fatal("Mean(nil)")
	}
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Fatalf("Mean = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{3, 1, 2, 5, 4}
	cases := []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Must not mutate input.
	if xs[0] != 3 {
		t.Fatal("Percentile mutated input")
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("Percentile(nil)")
	}
}

func TestPercentileSorted(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ p, want float64 }{{0, 1}, {25, 2}, {50, 3}, {100, 5}, {-3, 1}, {110, 5}}
	for _, c := range cases {
		if got := PercentileSorted(xs, c.p); got != c.want {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	if PercentileSorted(nil, 50) != 0 {
		t.Fatal("PercentileSorted(nil)")
	}
	// Must agree with Percentile on the unsorted equivalent.
	unsorted := []float64{3, 1, 2, 5, 4}
	for p := 0.0; p <= 100; p += 12.5 {
		if a, b := Percentile(unsorted, p), PercentileSorted(xs, p); a != b {
			t.Errorf("P%v: Percentile %v != PercentileSorted %v", p, a, b)
		}
	}
}

func TestPercentilesSorted(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	got := PercentilesSorted(xs, 0, 50, 100)
	want := []float64{1, 2.5, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("PercentilesSorted[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestMax(t *testing.T) {
	if Max(nil) != 0 {
		t.Fatal("Max(nil)")
	}
	if Max([]float64{-5, -2, -9}) != -2 {
		t.Fatal("Max negative")
	}
}

func TestCDF(t *testing.T) {
	cdf := CDF([]float64{1, 3, 2, 4})
	if len(cdf) != 4 || cdf[0].X != 1 || cdf[3].X != 4 || cdf[3].P != 1 {
		t.Fatalf("CDF = %+v", cdf)
	}
	if got := CDFAt(cdf, 2.5); got != 0.5 {
		t.Errorf("CDFAt(2.5) = %v", got)
	}
	if got := CDFAt(cdf, 0.5); got != 0 {
		t.Errorf("CDFAt(0.5) = %v", got)
	}
	if got := CDFAt(cdf, 10); got != 1 {
		t.Errorf("CDFAt(10) = %v", got)
	}
}

func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []float64, a, b uint8) bool {
		if len(raw) == 0 {
			return true
		}
		pa, pb := float64(a%101), float64(b%101)
		if pa > pb {
			pa, pb = pb, pa
		}
		return Percentile(raw, pa) <= Percentile(raw, pb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCDFMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		cdf := CDF(raw)
		return sort.SliceIsSorted(cdf, func(i, j int) bool { return cdf[i].P < cdf[j].P || cdf[i].X <= cdf[j].X })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func res(dl, finish sim.Time, term bool) workload.Result {
	return workload.Result{
		Flow:       workload.Flow{Size: 1, Deadline: dl},
		Finish:     finish,
		Terminated: term,
	}
}

func TestAppThroughput(t *testing.T) {
	rs := []workload.Result{
		res(10, 5, false),  // met
		res(10, 15, false), // missed
		res(10, -1, false), // never finished
		res(10, 5, true),   // terminated
		res(0, 5, false),   // unconstrained: ignored
	}
	if got := AppThroughput(rs); got != 25 {
		t.Fatalf("AppThroughput = %v, want 25", got)
	}
	if got := AppThroughput(nil); got != 100 {
		t.Fatalf("AppThroughput(nil) = %v, want 100", got)
	}
}

// TestDeadlinePctKeepsOrder checks, for every flow count up to a few
// thousand, what a search probe's early stop leans on: more met flows never
// give a smaller percentage, so bounds on the count are bounds on the
// metric in the metric's own floats.
func TestDeadlinePctKeepsOrder(t *testing.T) {
	for total := 1; total <= 3000; total++ {
		prev := DeadlinePct(0, total)
		if prev != 0 {
			t.Fatalf("DeadlinePct(0, %d) = %v", total, prev)
		}
		for met := 1; met <= total; met++ {
			v := DeadlinePct(met, total)
			if v < prev {
				t.Fatalf("DeadlinePct(%d, %d) = %v below DeadlinePct(%d, %d) = %v", met, total, v, met-1, total, prev)
			}
			prev = v
		}
		if prev != 100 {
			t.Fatalf("DeadlinePct(%d, %d) = %v", total, total, prev)
		}
	}
}

func TestMeanFCTAndFilter(t *testing.T) {
	rs := []workload.Result{
		{Flow: workload.Flow{Size: 100, Start: 0}, Finish: sim.Second},
		{Flow: workload.Flow{Size: 200, Start: 0}, Finish: 3 * sim.Second},
		{Flow: workload.Flow{Size: 300, Start: 0}, Finish: -1},
	}
	if got := MeanFCT(rs, nil); got != 2 {
		t.Fatalf("MeanFCT = %v, want 2", got)
	}
	big := func(r workload.Result) bool { return r.Size > 150 }
	if got := MeanFCT(rs, big); got != 3 {
		t.Fatalf("filtered MeanFCT = %v, want 3", got)
	}
	if got := FCTs(rs); len(got) != 2 {
		t.Fatalf("FCTs len = %d", len(got))
	}
}

func TestMaxN(t *testing.T) {
	// ok for n <= 37.
	calls := 0
	got := MaxN(1, 100, func(n int) bool { calls++; return n <= 37 })
	if got != 37 {
		t.Fatalf("MaxN = %d, want 37", got)
	}
	if calls > 12 {
		t.Errorf("binary search used %d calls", calls)
	}
	if got := MaxN(5, 10, func(int) bool { return false }); got != 4 {
		t.Fatalf("all-false MaxN = %d, want lo-1", got)
	}
	if got := MaxN(5, 10, func(int) bool { return true }); got != 10 {
		t.Fatalf("all-true MaxN = %d, want hi", got)
	}
}

func TestPropertyMaxNFindsThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		thr := rng.Intn(120)
		got := MaxN(1, 100, func(n int) bool { return n <= thr })
		want := thr
		if thr < 1 {
			want = 0
		}
		if thr > 100 {
			want = 100
		}
		if got != want {
			t.Fatalf("thr=%d got=%d want=%d", thr, got, want)
		}
	}
}

func TestSeriesMeanOver(t *testing.T) {
	var s Series
	s.Add(1, 10)
	s.Add(2, 20)
	s.Add(3, 30)
	if got := s.MeanOver(2, 4); got != 25 {
		t.Fatalf("MeanOver = %v", got)
	}
}

func TestProbe(t *testing.T) {
	s := sim.New()
	x := 0.0
	p := NewProbe(s, 10, func() float64 { x++; return x })
	s.At(100, func() {})
	s.RunUntil(55)
	if len(p.T) != 5 {
		t.Fatalf("probe samples = %d, want 5", len(p.T))
	}
	p.Stop()
	s.Run()
	if len(p.T) != 5 {
		t.Fatalf("probe kept sampling after Stop: %d", len(p.T))
	}
}
