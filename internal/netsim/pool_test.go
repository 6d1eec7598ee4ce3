package netsim

import (
	"reflect"
	"strings"
	"testing"

	"pdq/internal/sim"
)

// mustPanic runs f and requires a panic whose message contains want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", r, want)
		}
	}()
	f()
}

// pooled takes a packet from a's pool and fills it like mkpkt does.
func pooled(n *Network, a, b *Host, path []*Link, wire int) *Packet {
	p := n.NewPacket(a.ID())
	p.Flow, p.Kind, p.Src, p.Dst = 1, DATA, a.ID(), b.ID()
	p.Payload, p.Wire, p.Path = wire-IPTCPHeader-SchedHdrWire, wire, path
	return p
}

// releaser is an Agent that ends every delivered packet's life.
type releaser struct{ got int }

func (r *releaser) Receive(pkt *Packet, _ *Link) {
	r.got++
	pkt.Release()
}

// poolUntouched requires that the run took nothing from the pool and gave
// nothing back: literal packets live outside it.
func poolUntouched(t *testing.T, n *Network) {
	t.Helper()
	if taken, released := n.PacketPoolStats(); taken != 0 || released != 0 {
		t.Fatalf("pool: taken %d released %d, want it untouched by literal packets", taken, released)
	}
}

func TestPoolRecyclesZeroedKeepingHeader(t *testing.T) {
	n, a, b, path := line(t)
	p := pooled(n, a, b, path, 1500)
	p.Subflow, p.Seq, p.CE, p.ECE, p.Prio, p.EchoSentAt, p.Hop = 3, 77, true, true, 5, 9, 1
	h := HeaderOf[SchedHeader](p)
	h.Rate = 42
	p.Release()
	if p.Path != nil {
		t.Error("Release left the path set")
	}
	q := n.NewPacket(a.ID())
	if q != p {
		t.Fatal("pool did not hand the released packet back")
	}
	if !reflect.DeepEqual(*q, Packet{Hdr: h, pool: q.pool}) {
		t.Errorf("recycled packet not zeroed: %+v", *q)
	}
	if HeaderOf[SchedHeader](q) != h || h.Rate != 42 {
		t.Error("recycled packet lost the header value it last carried")
	}
	// A different header type replaces it instead of being confused with it.
	type other struct{ X int }
	if o := HeaderOf[other](q); o == nil || q.Hdr != any(o) || o.X != 0 {
		t.Error("HeaderOf did not attach a zero header of the requested type")
	}
}

func TestUseAfterReleasePanics(t *testing.T) {
	n, a, b, path := line(t)
	p := pooled(n, a, b, path, 1500)
	p.Release()
	mustPanic(t, "empty path", func() { n.Send(p) })
	mustPanic(t, "released packet", func() { path[0].Enqueue(p) })
	mustPanic(t, "released twice", func() { p.Release() })
	// The guards left the pool intact: the packet comes back once.
	if q := n.NewPacket(a.ID()); q != p {
		t.Fatal("guards corrupted the free list")
	}
	if q := n.NewPacket(a.ID()); q == p {
		t.Fatal("free list handed the same packet out twice")
	}
}

func TestLiteralPacketIsNotPoolOwned(t *testing.T) {
	n, a, b, path := line(t)
	b.Agent = &releaser{}
	p := mkpkt(a, b, path, 1500)
	p.Release() // no-op
	p.Release() // still a no-op: nothing marks a literal free
	for i := 0; i < 3; i++ {
		n.Send(p) // delivered and "released" by the agent each time, then re-sent
		n.Sim.Run()
	}
	if got := b.Agent.(*releaser).got; got != 3 {
		t.Fatalf("literal packet delivered %d times, want 3", got)
	}
	if p.Path == nil {
		t.Error("Release cleared a literal packet's path")
	}
	poolUntouched(t, n)
}

// bouncer sends every packet it receives straight back, like the
// benchmark harness's sink agent.
type bouncer struct {
	net   *Network
	back  []*Link
	turns int
}

func (b *bouncer) Receive(p *Packet, _ *Link) {
	b.turns++
	p.Path = b.back
	b.net.Send(p)
}

func TestBouncingLiteralPacket(t *testing.T) {
	n, a, b, path := line(t)
	ba := &bouncer{net: n, back: path}
	bb := &bouncer{net: n, back: ReversePath(path)}
	a.Agent, b.Agent = ba, bb
	n.Send(mkpkt(a, b, path, 1500))
	n.Sim.RunUntil(sim.Millisecond)
	if ba.turns < 5 || bb.turns < 5 {
		t.Fatalf("packet bounced %d/%d times in 1 ms, want it to keep walking", ba.turns, bb.turns)
	}
	poolUntouched(t, n)
}

func TestTurnAround(t *testing.T) {
	n, a, b, path := line(t)
	rev := ReversePath(path)
	p := pooled(n, a, b, path, 1500)
	p.Subflow, p.Seq, p.EchoSentAt, p.CE, p.ECE, p.Prio = 2, 1444, 17, true, true, 6
	h := HeaderOf[SchedHeader](p)
	p.TurnAround(rev)
	want := Packet{Flow: 1, Subflow: 2, Kind: ACK, Src: a.ID(), Dst: b.ID(), Seq: 1444,
		Wire: ControlWire, Path: rev, Hdr: h, EchoSentAt: 17, pool: p.pool}
	if !reflect.DeepEqual(*p, want) {
		t.Errorf("turned-around packet %+v, want %+v over the reverse path", *p, want)
	}
}

// TestDropPointsRelease walks every place netsim itself ends a packet's
// life and checks each returns the packet to the pool exactly once.
func TestDropPointsRelease(t *testing.T) {
	cases := []struct {
		name string
		prep func(n *Network, a, b *Host, path []*Link)
		send int
		want func(path []*Link) uint64 // drops observed, summed over the counters the case exercises
	}{
		{"tail-drop", func(_ *Network, _, _ *Host, path []*Link) { path[0].QueueCap = 3000 }, 5,
			func(path []*Link) uint64 { return path[0].Drops() }},
		{"qdisc-admit", func(_ *Network, _, _ *Host, path []*Link) {
			path[0].QueueCap = 3000
			path[0].SetQdisc(&ECNFIFO{})
		}, 5, func(path []*Link) uint64 { return path[0].Drops() }},
		{"sched-admit", func(_ *Network, _, _ *Host, path []*Link) {
			path[0].QueueCap = 3000
			path[0].SetQdisc(NewPrio(2))
		}, 5, func(path []*Link) uint64 { return path[0].Drops() }},
		{"loss-coin", func(_ *Network, _, _ *Host, path []*Link) { path[1].LossRate = 1 }, 3,
			func(path []*Link) uint64 { return path[1].LossDrops() }},
		{"gilbert", func(_ *Network, _, _ *Host, path []*Link) {
			path[1].SetGE(&GilbertElliott{LossGood: 1})
		}, 3, func(path []*Link) uint64 { return path[1].LossDrops() }},
		{"down-at-enqueue", func(_ *Network, _, _ *Host, path []*Link) { path[1].SetDown(true) }, 3,
			func(path []*Link) uint64 { return path[1].FaultDrops() }},
		{"down-at-delivery", func(n *Network, _, _ *Host, path []*Link) {
			n.Sim.At(sim.Microsecond, func() { path[0].SetDown(true) })
		}, 2, func(path []*Link) uint64 { return path[0].FaultDrops() }},
		{"process-false", func(n *Network, _, _ *Host, _ []*Link) {
			n.Node(1).(*Switch).Logic = dropAll{}
		}, 3, nil},
		{"host-without-agent", func(_ *Network, _, b *Host, _ []*Link) { b.Agent = nil }, 3, nil},
		{"relay-process-false", func(n *Network, a, b *Host, path []*Link) {
			// b relays toward a third host (server-centric forwarding) and
			// its logic refuses the packet.
			c := n.NewHost()
			path = append(path, n.NewDuplexLink(b, c))
			b.Logic = dropAll{}
			for i := 0; i < 3; i++ {
				n.Send(pooled(n, a, c, path, 1500))
			}
		}, 0, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, a, b, path := line(t)
			rb := &releaser{}
			b.Agent = rb
			tc.prep(n, a, b, path)
			for i := 0; i < tc.send; i++ {
				n.Send(pooled(n, a, b, path, 1500))
			}
			n.Sim.Run()
			taken, released := n.PacketPoolStats()
			if taken == 0 || released != taken {
				t.Fatalf("taken %d, released %d", taken, released)
			}
			dropped := taken - uint64(rb.got)
			if dropped == 0 {
				t.Fatal("case dropped nothing")
			}
			if tc.want != nil && tc.want(path) != dropped {
				t.Errorf("link counted %d drops, pool saw %d", tc.want(path), dropped)
			}
		})
	}
}

// TestPoolSteadyStateAllocs pins the pool's own contract: once it holds
// the in-flight high-water mark, taking, sending, delivering and
// releasing packets allocates nothing — header included.
func TestPoolSteadyStateAllocs(t *testing.T) {
	n, a, b, path := line(t)
	b.Agent = &releaser{}
	burst := func() {
		for i := 0; i < 8; i++ {
			p := pooled(n, a, b, path, 1500)
			HeaderOf[SchedHeader](p).Rate = int64(i)
			n.Send(p)
		}
		n.Sim.Run()
	}
	burst()
	if allocs := testing.AllocsPerRun(50, burst); allocs > 0 {
		t.Errorf("steady-state pooled send/deliver/release allocates %.1f times per burst, want 0", allocs)
	}
}
