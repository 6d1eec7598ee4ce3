package workload

import (
	"testing"

	"pdq/internal/sim"
)

// TestResolvedKeepsNewest pins the record cut: one result per resolved
// flow in order of the instant it resolved at, registration order breaking
// ties, a Terminate before the Finish resolving the flow terminated; an
// unresolved flow has none; and the cut keeps the newest max, counting the
// rest as dropped.
func TestResolvedKeepsNewest(t *testing.T) {
	const n = 100
	c := NewCollector()
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = c.Register(Flow{ID: uint64(i + 1), Size: 1000})
	}
	// Slot i resolves at instant n-i, against registration order, except
	// that slots 0 and 1 tie at n and the last slot never resolves. Slot 2
	// terminates at n-2 and then finishes at n.
	for i := n - 2; i >= 2; i-- {
		if i == 2 {
			refs[i].SetBytesAcked(400)
			refs[i].Terminate(sim.Time(n - i))
			continue
		}
		refs[i].Finish(sim.Time(n - i))
	}
	refs[0].Finish(sim.Time(n))
	refs[1].Finish(sim.Time(n))
	refs[2].Finish(sim.Time(n))

	if rs, dropped := c.Resolved(n); len(rs) != n-1 || dropped != 0 {
		t.Fatalf("uncut: %d results, %d dropped; want %d and 0", len(rs), dropped, n-1)
	}
	keep := n - 3
	rs, dropped := c.Resolved(keep)
	if len(rs) != keep || dropped != 2 {
		t.Fatalf("kept %d results, dropped %d; want %d and 2", len(rs), dropped, keep)
	}
	// The two oldest, slots n-2 and n-3, are dropped.
	if got, want := rs[0].ID, uint64(n-3); got != want {
		t.Errorf("oldest kept result is flow %d, want %d", got, want)
	}
	for i, want := range map[int]uint64{keep - 4: 4, keep - 3: 3, keep - 2: 1, keep - 1: 2} {
		if got := rs[i].ID; got != want {
			t.Errorf("result %d is flow %d, want %d", i, got, want)
		}
	}
	if r := rs[keep-3]; !r.Terminated || r.BytesAcked != 400 || r.Finish != sim.Time(n) {
		t.Errorf("terminated-then-finished flow recorded as %+v", r)
	}
	if r := rs[keep-1]; r.Terminated || r.BytesAcked != 1000 || r.FCT() != sim.Time(n) {
		t.Errorf("finished flow recorded as %+v", r)
	}
}
