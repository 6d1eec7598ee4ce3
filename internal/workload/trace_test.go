package workload

import (
	"testing"

	"pdq/internal/sim"
	"pdq/internal/trace"
)

// TestTraceFlowsKeepsNewest pins the record cut: one record per resolved
// flow in order of the instant it resolved at, registration order breaking
// ties, a Terminate before the Finish resolving the flow terminated; an
// unresolved flow has none; and a cell keeps the newest
// trace.MaxFlowRecords, counting the rest as dropped.
func TestTraceFlowsKeepsNewest(t *testing.T) {
	n := trace.MaxFlowRecords + 3
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

	c.TraceFlows(nil) // tracing off: a no-op
	ct := trace.New(true, false).OpenCell(trace.Cell{})
	c.TraceFlows(ct)
	keep := trace.MaxFlowRecords
	if len(ct.Flows) != keep || ct.Dropped != 2 {
		t.Fatalf("kept %d records, dropped %d; want %d and 2", len(ct.Flows), ct.Dropped, keep)
	}
	// The two oldest, slots n-2 and n-3, are dropped.
	if got, want := ct.Flows[0].ID, uint64(n-3); got != want {
		t.Errorf("oldest kept record is flow %d, want %d", got, want)
	}
	for i, want := range map[int]uint64{keep - 4: 4, keep - 3: 3, keep - 2: 1, keep - 1: 2} {
		if got := ct.Flows[i].ID; got != want {
			t.Errorf("record %d is flow %d, want %d", i, got, want)
		}
	}
	if r := ct.Flows[keep-3]; !r.Terminated || r.BytesAcked != 400 || r.Finish != sim.Time(n) {
		t.Errorf("terminated-then-finished flow recorded as %+v", r)
	}
	if r := ct.Flows[keep-1]; r.Terminated || r.BytesAcked != 1000 || r.FCT() != sim.Time(n) {
		t.Errorf("finished flow recorded as %+v", r)
	}
}
