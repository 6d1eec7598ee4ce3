package fluid

import (
	"math/rand"
	"testing"

	"pdq/internal/sim"
	"pdq/internal/workload"
)

// rate chosen so 1 byte takes 8 ns; sizes below are picked for round
// numbers at 1 Gbps.
const gbps = 1_000_000_000

// fig1Flows is the paper's motivating example (Fig. 1) with one "unit" =
// 1 second at 1 Gbps = 125 MB.
func fig1Flows() []workload.Flow {
	unit := int64(gbps / 8) // bytes per second-unit
	return []workload.Flow{
		{ID: 1, Size: 1 * unit, Deadline: 1 * sim.Second},
		{ID: 2, Size: 2 * unit, Deadline: 4 * sim.Second},
		{ID: 3, Size: 3 * unit, Deadline: 6 * sim.Second},
	}
}

func TestFig1FairSharing(t *testing.T) {
	c := FairShare(fig1Flows(), gbps)
	// Paper: [fA,fB,fC] finish at [3,5,6]; mean 4.67.
	want := map[uint64]float64{1: 3, 2: 5, 3: 6}
	for id, w := range want {
		got := c[id].Seconds()
		if got < w-0.01 || got > w+0.01 {
			t.Errorf("flow %d finishes at %.2f, want %v", id, got, w)
		}
	}
	if m := MeanFCT(fig1Flows(), c); m < 4.6 || m > 4.72 {
		t.Errorf("mean FCT %.3f, want ≈4.67", m)
	}
}

func TestFig1SJF(t *testing.T) {
	c := SRPT(fig1Flows(), gbps)
	// Paper: SJF finishes at [1,3,6]; mean 3.33 (~29% better).
	want := map[uint64]float64{1: 1, 2: 3, 3: 6}
	for id, w := range want {
		got := c[id].Seconds()
		if got < w-0.01 || got > w+0.01 {
			t.Errorf("flow %d finishes at %.2f, want %v", id, got, w)
		}
	}
	if m := MeanFCT(fig1Flows(), c); m < 3.3 || m > 3.37 {
		t.Errorf("mean FCT %.3f, want ≈3.33", m)
	}
}

// TestD3 is Fig. 1d: D3 with the flows arriving fB, fA, fC. fB reserves
// 2/4 of the link, fA gets the half left and misses its 1 s deadline at
// 2 s, fC waits, takes fA's half at 2 s and the whole link at 4 s, when fB
// finishes at its deadline, and finishes at 6 s: two deadlines met, bit
// for bit.
func TestD3(t *testing.T) {
	fl := fig1Flows()
	c := D3([]workload.Flow{fl[1], fl[0], fl[2]}, gbps)
	for id, want := range map[uint64]sim.Time{1: 2 * sim.Second, 2: 4 * sim.Second, 3: 6 * sim.Second} {
		if c[id] != want {
			t.Errorf("flow %d finishes at %v, want %v", id, c[id], want)
		}
	}
	met := 0
	for _, f := range fl {
		if c[f.ID] <= f.AbsDeadline() {
			met++
		}
	}
	if met != 2 {
		t.Errorf("%d deadlines met, want 2", met)
	}
}

func TestFig1EDFMeetsAllDeadlines(t *testing.T) {
	flows := fig1Flows()
	c, tardy := MooreHodgson(flows, gbps)
	if len(tardy) != 0 {
		t.Fatalf("EDF should satisfy all Fig. 1 deadlines, tardy=%v", tardy)
	}
	for _, f := range flows {
		if c[f.ID] > f.Deadline {
			t.Errorf("flow %d missed deadline", f.ID)
		}
	}
}

func TestSRPTPreemption(t *testing.T) {
	// Long flow at 0, short flow at 1s: SRPT preempts.
	unit := int64(gbps / 8)
	flows := []workload.Flow{
		{ID: 1, Size: 4 * unit, Start: 0},
		{ID: 2, Size: 1 * unit, Start: sim.Second},
	}
	c := SRPT(flows, gbps)
	if got := c[2].Seconds(); got < 1.99 || got > 2.01 {
		t.Errorf("short flow finishes at %.2f, want 2 (preemption)", got)
	}
	if got := c[1].Seconds(); got < 4.99 || got > 5.01 {
		t.Errorf("long flow finishes at %.2f, want 5", got)
	}
}

func TestSRPTIdlePeriod(t *testing.T) {
	unit := int64(gbps / 8)
	flows := []workload.Flow{
		{ID: 1, Size: unit, Start: 0},
		{ID: 2, Size: unit, Start: 5 * sim.Second},
	}
	c := SRPT(flows, gbps)
	if got := c[2].Seconds(); got < 5.99 || got > 6.01 {
		t.Errorf("post-idle flow finishes at %.2f, want 6", got)
	}
}

func TestFairShareLateArrival(t *testing.T) {
	unit := int64(gbps / 8)
	flows := []workload.Flow{
		{ID: 1, Size: 2 * unit, Start: 0},
		{ID: 2, Size: 1 * unit, Start: sim.Second},
	}
	// Flow 1 alone for 1s (1 unit left), then shares: both have work
	// left; flow2 (1 unit) and flow1 (1 unit) finish together at 3s.
	c := FairShare(flows, gbps)
	if got := c[1].Seconds(); got < 2.99 || got > 3.01 {
		t.Errorf("flow1 at %.2f, want 3", got)
	}
	if got := c[2].Seconds(); got < 2.99 || got > 3.01 {
		t.Errorf("flow2 at %.2f, want 3", got)
	}
}

func TestMooreHodgsonDiscardsMinimum(t *testing.T) {
	unit := int64(gbps / 8)
	// Three flows of 1s each, all with deadline 2s: only two can fit.
	var flows []workload.Flow
	for i := uint64(1); i <= 3; i++ {
		flows = append(flows, workload.Flow{ID: i, Size: unit, Deadline: 2 * sim.Second})
	}
	c, tardy := MooreHodgson(flows, gbps)
	if len(tardy) != 1 {
		t.Fatalf("tardy=%d, want 1", len(tardy))
	}
	met := 0
	for _, f := range flows {
		if c[f.ID] <= f.Deadline {
			met++
		}
	}
	if met != 2 {
		t.Fatalf("met=%d, want 2", met)
	}
	if got := OptimalAppThroughput(flows, gbps); got < 66 || got > 67 {
		t.Errorf("OptimalAppThroughput = %v, want ≈66.7", got)
	}
}

// Property: Moore–Hodgson matches brute force on small random instances.
func TestPropertyMooreHodgsonOptimal(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(6)
		flows := make([]workload.Flow, n)
		for i := range flows {
			flows[i] = workload.Flow{
				ID:       uint64(i + 1),
				Size:     int64(1+rng.Intn(10)) * gbps / 80, // 0.1–1.0 s of work
				Deadline: sim.Time(1+rng.Intn(40)) * (sim.Second / 10),
			}
		}
		_, tardy := MooreHodgson(flows, gbps)
		if got, want := n-len(tardy), bruteMaxOnTime(flows); got != want {
			t.Fatalf("trial %d: Moore–Hodgson on-time %d, brute force %d (flows %+v)", trial, got, want, flows)
		}
	}
}

// bruteMaxOnTime tries all subsets, scheduling each in EDF order.
func bruteMaxOnTime(flows []workload.Flow) int {
	n := len(flows)
	best := 0
	for mask := 0; mask < 1<<n; mask++ {
		var sel []workload.Flow
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				sel = append(sel, flows[i])
			}
		}
		// EDF is optimal for feasibility of a fixed set.
		sortByDeadline(sel)
		var t sim.Time
		ok := true
		for _, f := range sel {
			t += xmit(f.Size, gbps)
			if t > f.Deadline {
				ok = false
				break
			}
		}
		if ok && len(sel) > best {
			best = len(sel)
		}
	}
	return best
}

func sortByDeadline(fs []workload.Flow) {
	for i := 1; i < len(fs); i++ {
		for j := i; j > 0 && fs[j].Deadline < fs[j-1].Deadline; j-- {
			fs[j], fs[j-1] = fs[j-1], fs[j]
		}
	}
}

// Property: SRPT mean FCT ≤ fair sharing mean FCT on random instances
// (fair sharing is "far from optimal", §1).
func TestPropertySRPTBeatsFairSharing(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		flows := make([]workload.Flow, n)
		for i := range flows {
			flows[i] = workload.Flow{
				ID:    uint64(i + 1),
				Size:  int64(1+rng.Intn(100)) << 12,
				Start: sim.Time(rng.Intn(10)) * sim.Millisecond,
			}
		}
		srpt := MeanFCT(flows, SRPT(flows, gbps))
		fair := MeanFCT(flows, FairShare(flows, gbps))
		if srpt > fair*1.0000001 {
			t.Fatalf("trial %d: SRPT %.6f > fair %.6f", trial, srpt, fair)
		}
	}
}

// Property: work conservation — the last completion equals total work
// time when there are no idle gaps (all flows start at 0).
func TestPropertyWorkConservation(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(8)
		flows := make([]workload.Flow, n)
		var total sim.Time
		for i := range flows {
			flows[i] = workload.Flow{ID: uint64(i + 1), Size: int64(1+rng.Intn(50)) << 12}
			total += xmit(flows[i].Size, gbps)
		}
		for _, c := range []Completion{SRPT(flows, gbps), FairShare(flows, gbps)} {
			var last sim.Time
			for _, f := range flows {
				if c[f.ID] > last {
					last = c[f.ID]
				}
			}
			diff := last - total
			if diff < -2 || diff > 2 { // integer rounding only
				t.Fatalf("trial %d: last completion %v != total work %v", trial, last, total)
			}
		}
	}
}
