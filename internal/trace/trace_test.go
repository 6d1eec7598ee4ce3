package trace

import (
	"os"
	"strings"
	"sync"
	"testing"

	"pdq/internal/sim"
	"pdq/internal/workload"
)

func TestProberFixedStride(t *testing.T) {
	s := sim.New()
	p := NewProber(s, sim.Millisecond)
	n := 0.0
	col := p.Add("count", func() float64 { n++; return n })
	p.Add("const", func() float64 { return 7 })
	p.Start()
	// Keep the sim busy past 5 strides; RunUntil never fires events
	// beyond the horizon, bounding the series length.
	s.RunUntil(5 * sim.Millisecond)
	if got := len(col.Vals); got != 5 {
		t.Fatalf("got %d samples over 5 strides, want 5", got)
	}
	if col.At(0) != sim.Millisecond || col.At(4) != 5*sim.Millisecond {
		t.Fatalf("sample times wrong: At(0)=%v At(4)=%v", col.At(0), col.At(4))
	}
	for i, v := range col.Vals {
		if v != float64(i+1) {
			t.Fatalf("sample %d = %g, want %d", i, v, i+1)
		}
	}
}

func TestTraceCellOrderingDeterministic(t *testing.T) {
	tr := New(true, false)
	cells := []Cell{
		{Scenario: "s", Row: "B", Col: "1", Seed: 1},
		{Scenario: "s", Row: "A", Col: "2", Seed: 1},
		{Scenario: "s", Row: "A", Col: "1", Seed: 2},
		{Scenario: "s", Row: "A", Col: "1", Seed: 1},
	}
	var wg sync.WaitGroup
	for _, c := range cells {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct := tr.OpenCell(c)
			ct.Flows = append(ct.Flows, workload.Result{Flow: workload.Flow{ID: 1}, Finish: -1})
		}()
	}
	wg.Wait()
	got := tr.Cells()
	want := []Cell{
		{Scenario: "s", Row: "A", Col: "1", Seed: 1},
		{Scenario: "s", Row: "A", Col: "1", Seed: 2},
		{Scenario: "s", Row: "A", Col: "2", Seed: 1},
		{Scenario: "s", Row: "B", Col: "1", Seed: 1},
	}
	for i, ct := range got {
		if ct.Cell != want[i] {
			t.Fatalf("cells[%d] = %+v, want %+v", i, ct.Cell, want[i])
		}
	}
	var b strings.Builder
	if err := tr.WriteFlows(&b); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(b.String(), "\n"); n != len(cells) {
		t.Fatalf("JSONL has %d lines, want %d", n, len(cells))
	}
	if !strings.Contains(b.String(), `"finish_ms":-1`) {
		t.Fatalf("unfinished flow not exported with finish_ms -1:\n%s", b.String())
	}
}

func TestNilTraceAndNilCell(t *testing.T) {
	var tr *Trace
	ct := tr.OpenCell(Cell{})
	if ct != nil {
		t.Fatal("nil Trace must yield nil CellTrace")
	}
	if ct.WantProbes() {
		t.Fatal("nil CellTrace wants probes")
	}
	c := workload.NewCollector()
	c.Register(workload.Flow{ID: 1}).Finish(sim.Millisecond)
	ct.CutFlows(c) // tracing off: a no-op
	probes := New(false, true).OpenCell(Cell{})
	if probes.CutFlows(c); probes.Flows != nil {
		t.Fatalf("a probe-only cell cut flow records %v", probes.Flows)
	}
	flows := New(true, false).OpenCell(Cell{})
	if flows.CutFlows(c); len(flows.Flows) != 1 || flows.Flows[0].ID != 1 || flows.Dropped != 0 {
		t.Fatalf("a flow-recording cell cut %v, dropping %d", flows.Flows, flows.Dropped)
	}
}

func TestCacheRoundTripAndCounters(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("cell-1"))
	if _, ok := c.GetFloat(key); ok {
		t.Fatal("hit on empty cache")
	}
	vals := []float64{0, 1.5, -3.25e-9, 99.000000000000014} // incl. a value text round-trips would mangle
	for i, v := range vals {
		k := Key([]byte{byte(i)})
		c.PutFloat(k, v)
		got, ok := c.GetFloat(k)
		if !ok || got != v {
			t.Fatalf("round trip of %v: got %v ok=%t", v, got, ok)
		}
	}
	if c.Hits() != uint64(len(vals)) || c.Misses() != 1 {
		t.Fatalf("hits=%d misses=%d, want %d/1", c.Hits(), c.Misses(), len(vals))
	}
}

func TestCacheCorruptEntryRecovers(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := Key([]byte("x"))
	c.PutFloat(key, 42)
	// Corrupt the entry on disk.
	if err := os.WriteFile(c.path(key), []byte("not-a-float\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GetFloat(key); ok {
		t.Fatal("corrupt entry served as a hit")
	}
	if c.Errors() == 0 {
		t.Fatal("corruption not counted")
	}
	// The corrupt entry was dropped; a fresh put repairs it.
	c.PutFloat(key, 42)
	if v, ok := c.GetFloat(key); !ok || v != 42 {
		t.Fatalf("repaired entry: got %v ok=%t", v, ok)
	}
}
