package netsim

import (
	"testing"

	"pdq/internal/sim"
)

func TestSetQdiscNormalizesDefault(t *testing.T) {
	n := NewNetwork(sim.New(), 1)
	a, b := n.NewHost(), n.NewHost()
	l := n.NewDuplexLink(a, b)
	if l.Qdisc() != nil {
		t.Fatal("fresh link should have nil qdisc")
	}
	l.SetQdisc(TailDrop{})
	if l.Qdisc() != nil {
		t.Fatal("TailDrop should normalize to the nil fast path")
	}
	l.SetQdisc(&ECNFIFO{Threshold: 1})
	if _, ok := l.Qdisc().(*ECNFIFO); !ok {
		t.Fatal("ECNFIFO not installed")
	}
	l.SetQdisc(nil)
	if l.Qdisc() != nil {
		t.Fatal("nil should uninstall")
	}
}

// TestECNFIFOTimingMatchesDefault pins that a marking FIFO changes no
// packet timing: the discipline rides the same timestamp serializer, so
// delivery instants are identical to the tail-drop default.
func TestECNFIFOTimingMatchesDefault(t *testing.T) {
	deliver := func(install func(*Link)) []sim.Time {
		n, a, b, path := line(t)
		install(path[0])
		for i := 0; i < 5; i++ {
			n.Send(mkpkt(a, b, path, 1500))
		}
		n.Sim.Run()
		return b.Agent.(*collector).at
	}
	def := deliver(func(*Link) {})
	ecn := deliver(func(l *Link) { l.SetQdisc(&ECNFIFO{Threshold: 3000}) })
	if len(def) != len(ecn) || len(def) != 5 {
		t.Fatalf("delivered %d vs %d packets", len(def), len(ecn))
	}
	for i := range def {
		if def[i] != ecn[i] {
			t.Errorf("packet %d delivered at %v under ecn, %v under default", i, ecn[i], def[i])
		}
	}
}

func TestECNThresholdMarking(t *testing.T) {
	n, a, b, path := line(t)
	path[0].SetQdisc(&ECNFIFO{Threshold: 3000})
	var pkts []*Packet
	for i := 0; i < 5; i++ {
		p := mkpkt(a, b, path, 1500)
		pkts = append(pkts, p)
		n.Send(p)
	}
	n.Sim.Run()
	// Backlog at arrival: 0, 1500, 3000, 4500, 6000 — only the packets
	// arriving above 3000 bytes of standing queue are marked.
	for i, want := range []bool{false, false, false, true, true} {
		if pkts[i].CE != want {
			t.Errorf("packet %d CE = %v, want %v", i, pkts[i].CE, want)
		}
	}
	if got := len(b.Agent.(*collector).got); got != 5 {
		t.Fatalf("delivered %d packets, want 5", got)
	}
}

func TestECNFIFOTailDropsAtCap(t *testing.T) {
	n, a, b, path := line(t)
	path[0].QueueCap = 3000
	path[0].SetQdisc(&ECNFIFO{Threshold: 1})
	for i := 0; i < 5; i++ {
		n.Send(mkpkt(a, b, path, 1500))
	}
	n.Sim.Run()
	if got := len(b.Agent.(*collector).got); got != 2 {
		t.Fatalf("delivered %d packets, want 2", got)
	}
	if path[0].Drops() != 3 {
		t.Errorf("Drops = %d, want 3", path[0].Drops())
	}
}

func TestPrioStrictOrdering(t *testing.T) {
	n, a, b, path := line(t)
	path[0].SetQdisc(NewPrio(4))
	// While the first (band 3) packet serializes, queue band 2, band 0,
	// band 2: dequeue order must be 0, then the 2s FIFO, never 3 first.
	p3 := mkpkt(a, b, path, 1500)
	p3.Prio = 3
	p2a := mkpkt(a, b, path, 1500)
	p2a.Prio = 2
	p0 := mkpkt(a, b, path, 1500)
	p0.Prio = 0
	p2b := mkpkt(a, b, path, 1500)
	p2b.Prio = 2
	n.Send(p3) // enters service immediately
	n.Send(p2a)
	n.Send(p0)
	n.Send(p2b)
	n.Sim.Run()
	got := b.Agent.(*collector).got
	want := []*Packet{p3, p0, p2a, p2b}
	if len(got) != len(want) {
		t.Fatalf("delivered %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("delivery %d: got band %d packet, want band %d (order %v)", i, got[i].Prio, want[i].Prio, order(got))
		}
	}
	// Back-to-back serialization: one tx time between deliveries.
	at := b.Agent.(*collector).at
	tx := sim.Time(12 * sim.Microsecond)
	for i := 1; i < len(at); i++ {
		if at[i]-at[i-1] != tx {
			t.Errorf("gap %d = %v, want %v", i, at[i]-at[i-1], tx)
		}
	}
}

func order(ps []*Packet) []uint8 {
	out := make([]uint8, len(ps))
	for i, p := range ps {
		out[i] = p.Prio
	}
	return out
}

func TestPrioBandOverflowCollapses(t *testing.T) {
	n, a, b, path := line(t)
	path[0].SetQdisc(NewPrio(2))
	busy := mkpkt(a, b, path, 1500)
	hi := mkpkt(a, b, path, 1500)
	hi.Prio = 0
	over := mkpkt(a, b, path, 1500)
	over.Prio = 200 // beyond the last band: collapses into band 1
	n.Send(busy)
	n.Send(over)
	n.Send(hi)
	n.Sim.Run()
	got := b.Agent.(*collector).got
	if len(got) != 3 || got[1] != hi || got[2] != over {
		t.Fatalf("delivery order %v, want busy, hi, over", order(got))
	}
}

func TestPrioQueueAccounting(t *testing.T) {
	n, a, b, path := line(t)
	l := path[0]
	l.SetQdisc(NewPrio(4))
	for i := 0; i < 3; i++ {
		n.Send(mkpkt(a, b, path, 1500))
	}
	if q := l.QueueBytes(); q != 4500 {
		t.Fatalf("queue = %d, want 4500", q)
	}
	if w := l.QueueWaiting(); w != 3000 {
		t.Fatalf("waiting = %d, want 3000", w)
	}
	n.Sim.RunUntil(12*sim.Microsecond + 1)
	if q := l.QueueBytes(); q != 3000 {
		t.Fatalf("after one tx, queue = %d, want 3000", q)
	}
	n.Sim.Run()
	if q, w := l.QueueBytes(), l.QueueWaiting(); q != 0 || w != 0 {
		t.Fatalf("final queue = %d waiting = %d, want 0", q, w)
	}
	if l.TxPackets() != 3 || l.TxBytes() != 4500 {
		t.Errorf("counters: %d pkts %d bytes", l.TxPackets(), l.TxBytes())
	}
	if got := len(b.Agent.(*collector).got); got != 3 {
		t.Fatalf("delivered %d packets, want 3", got)
	}
}

func TestPrioTailDropAtCap(t *testing.T) {
	n, a, b, path := line(t)
	path[0].QueueCap = 3000
	path[0].SetQdisc(NewPrio(4))
	var pkts []*Packet
	for i := 0; i < 5; i++ {
		p := mkpkt(a, b, path, 1500)
		p.Prio = uint8(i % 4)
		pkts = append(pkts, p)
		n.Send(p)
	}
	n.Sim.Run()
	if got := len(b.Agent.(*collector).got); got != 2 {
		t.Fatalf("delivered %d packets, want 2", got)
	}
	if path[0].Drops() != 3 {
		t.Errorf("Drops = %d, want 3", path[0].Drops())
	}
}

// TestSchedZeroDelayAccountingTie pins the scheduler path's event
// ordering at a (time, seq) tie: with zero propagation and processing
// delay a packet's ser-done accounting and its delivery land on the
// same instant, and the accounting must fire first — an agent reacting
// to the delivery sees the packet already counted as departed, exactly
// as the fast path's enqSeq tie-break reports it.
func TestSchedZeroDelayAccountingTie(t *testing.T) {
	counts := func(install func(*Link)) (tx uint64, q int) {
		n := NewNetwork(sim.New(), 1)
		a := n.NewHost()
		b := n.NewHost()
		l := n.NewDuplexLink(a, b)
		l.PropDelay, l.ProcDelay = 0, 0
		install(l)
		probe := &deliveryProbe{link: l}
		b.Agent = probe
		n.Send(&Packet{Flow: 1, Kind: DATA, Src: a.ID(), Dst: b.ID(), Payload: 1460, Wire: 1500, Path: []*Link{l}})
		n.Sim.Run()
		return probe.txAtDelivery, probe.qAtDelivery
	}
	fastTx, fastQ := counts(func(*Link) {})
	schedTx, schedQ := counts(func(l *Link) { l.SetQdisc(NewPrio(2)) })
	if fastTx != 1 || fastQ != 0 {
		t.Fatalf("fast path at delivery: tx %d queue %d, want 1/0", fastTx, fastQ)
	}
	if schedTx != fastTx || schedQ != fastQ {
		t.Errorf("sched path at delivery: tx %d queue %d, fast path reports %d/%d", schedTx, schedQ, fastTx, fastQ)
	}
}

// deliveryProbe records the ingress link's counters at the instant of
// delivery.
type deliveryProbe struct {
	link         *Link
	txAtDelivery uint64
	qAtDelivery  int
}

func (p *deliveryProbe) Receive(pkt *Packet, ingress *Link) {
	p.txAtDelivery = p.link.TxPackets()
	p.qAtDelivery = p.link.QueueBytes()
}

func TestQdiscRegistry(t *testing.T) {
	names := qdiscs.Names()
	want := []string{"ecn", "prio", "tail-drop"}
	if len(names) != len(want) {
		t.Fatalf("QdiscNames = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("QdiscNames = %v, want %v (sorted)", names, want)
		}
	}
	if len(QdiscList()) != len(want) {
		t.Fatalf("QdiscList length %d", len(QdiscList()))
	}

	if _, _, err := MakeQdisc("nope", nil); err == nil {
		t.Error("unknown qdisc name should error")
	}
	if _, _, err := MakeQdisc("ecn", map[string]float64{"bogus": 1}); err == nil {
		t.Error("unknown qdisc param should error")
	}

	mk, p, err := MakeQdisc("ecn", map[string]float64{"threshold_kb": 64})
	if err != nil {
		t.Fatal(err)
	}
	if p["threshold_kb"] != 64 {
		t.Errorf("resolved params %v", p)
	}
	q := mk().(*ECNFIFO)
	if q.Threshold != 64<<10 {
		t.Errorf("threshold %d, want %d", q.Threshold, 64<<10)
	}
	if mk() == Qdisc(q) {
		t.Error("factory must mint a fresh instance per link")
	}

	mkP, _, err := MakeQdisc("prio", nil)
	if err != nil {
		t.Fatal(err)
	}
	if b := mkP().(*Prio).Bands(); b != DefaultPrioBands {
		t.Errorf("default bands %d, want %d", b, DefaultPrioBands)
	}
}

func TestGrowTo(t *testing.T) {
	s := GrowTo([]int{1, 2}, 5)
	if len(s) != 6 || s[0] != 1 || s[1] != 2 || s[5] != 0 {
		t.Fatalf("GrowTo = %v", s)
	}
	if got := GrowTo(s, 3); len(got) != 6 {
		t.Fatalf("GrowTo with valid index changed length to %d", len(got))
	}
	if raceEnabled {
		return // race instrumentation adds an allocation to the grow
	}
	// The whole extension lands in one allocation.
	allocs := testing.AllocsPerRun(100, func() {
		_ = GrowTo([]int64(nil), 511)
	})
	if allocs > 1 {
		t.Errorf("GrowTo allocated %.0f times, want 1", allocs)
	}
}
