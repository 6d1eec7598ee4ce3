package core

import (
	"fmt"
	"math/rand"
	"testing"

	"pdq/internal/netsim"
	"pdq/internal/protocol"
	"pdq/internal/sim"
)

// The differential test: the production SwitchLogic and the frozen
// reference in state_ref_test.go process the same packets side by side on
// a small star, and every header they return, every list entry and every
// controller value must match after every call. It follows
// flowsim/alloc_diff_test.go: one switchDiff serves the seeded test and
// FuzzSwitchLogicMatchesReference.

// switchDiff is one star and the two logics under test.
type switchDiff struct {
	tb    testing.TB
	sim   *sim.Sim
	net   *netsim.Network
	sw    *netsim.Switch
	hosts []*netsim.Host
	links []*netsim.Link // the switch's egress links, one per host
	got   *SwitchLogic
	ref   *refSwitchLogic
	m     int // M on every list
	op    int // operations applied, for failure messages
}

// ops is the test's decision stream: fuzz input or seeded random bytes.
// It yields zeros once exhausted, so any byte string is a valid program.
type ops struct {
	b []byte
	i int
}

func (o *ops) next() byte {
	if o.i >= len(o.b) {
		return 0
	}
	o.i++
	return o.b[o.i-1]
}

func (o *ops) done() bool { return o.i >= len(o.b) }

// diffConfigs are the feature sets and comparators the test picks from.
// ties compares deadlines and T_i in 100 µs buckets with no flow-ID break,
// so distinct flows tie; ljf serves the longest flow first.
var diffConfigs = []func() Config{
	Full, Basic, ES, ESET,
	func() Config {
		c := Full()
		c.Less = func(a, b Criticality) bool {
			if a.Deadline != b.Deadline {
				return a.Deadline < b.Deadline
			}
			return a.TTrans/(100*sim.Microsecond) < b.TTrans/(100*sim.Microsecond)
		}
		return c
	},
	func() Config {
		c := ES()
		c.Less = func(a, b Criticality) bool {
			if a.TTrans != b.TTrans {
				return a.TTrans > b.TTrans
			}
			return a.Key.id < b.Key.id
		}
		return c
	},
}

// newSwitchDiff builds a switch with three hosts on links of uneven rates.
func newSwitchDiff(tb testing.TB, cfg Config, m int) *switchDiff {
	s := sim.New()
	n := netsim.NewNetwork(s, 1)
	d := &switchDiff{tb: tb, sim: s, net: n, sw: n.NewSwitch(), m: m}
	for _, rate := range []int64{1e9, 333333333, 4e8} {
		h := n.NewHost()
		l := n.NewDuplexLink(d.sw, h)
		l.SetRate(rate)
		d.hosts = append(d.hosts, h)
		d.links = append(d.links, l)
	}
	got, ref := cfg, cfg
	d.got = NewSwitchLogic(&got, n.Arena(), len(n.Links()))
	d.ref = newRefSwitchLogic(&ref, len(n.Links()))
	// Keep the queue's clock running: RunUntil advances to its end only
	// while an event is pending.
	s.At(sim.MaxTime-1, func() {})
	return d
}

// run applies operations until the stream ends or maxOps have run.
func (d *switchDiff) run(in *ops, maxOps int) {
	for d.op = 0; d.op < maxOps && !in.done(); d.op++ {
		d.apply(in)
	}
}

// apply decodes and runs one operation, then compares the logics.
func (d *switchDiff) apply(in *ops) {
	for _, l := range d.links {
		d.got.state(l).maxList = d.m
		d.ref.state(l).maxList = d.m
	}
	op, l := in.next(), d.links[int(in.next())%len(d.links)]
	switch op % 16 {
	case 0, 1, 2, 3, 4:
		kind := []netsim.Kind{netsim.SYN, netsim.DATA, netsim.DATA, netsim.PROBE, netsim.DATA}[op%16]
		d.process(d.forward(in, l, kind))
	case 5:
		d.process(d.forward(in, l, netsim.TERM))
	case 6, 7, 8, 9:
		d.process(d.reverse(in, l))
	case 10, 11:
		d.advance(sim.Time(in.next()) * sim.Microsecond)
	case 12:
		d.advance(protocol.StaleTimeout + sim.Time(in.next())*sim.Microsecond)
	case 13:
		// A fallback flood: many new, least critical flows on one link.
		n := 4 + int(in.next()%32)
		for i := 0; i < n; i++ {
			pkt := d.packet(l, netsim.DATA, netsim.FlowID(100+i), 0, &netsim.SchedHeader{
				Rate: l.Rate, PauseBy: netsim.PauseNone, TTrans: sim.Second + sim.Time(i)})
			d.process(pkt)
		}
	case 14:
		d.got.ResetLinkState(l)
		d.ref.ResetLinkState(l)
		d.compare(nil, nil)
	case 15:
		// A standing queue for the rate controller to drain.
		for n := int(in.next() % 16); n > 0; n-- {
			pkt := d.net.NewPacket()
			pkt.Wire, pkt.Path = netsim.MTU, []*netsim.Link{l}
			l.Enqueue(pkt)
		}
	}
}

// advance moves the clock on by dt.
func (d *switchDiff) advance(dt sim.Time) { d.sim.RunUntil(d.sim.Now() + dt) }

// nodeFor decodes a pause-by field: mostly none, else this switch or a
// host standing for another switch on the path.
func (d *switchDiff) nodeFor(b byte) netsim.NodeID {
	switch b % 4 {
	case 0:
		return d.sw.ID()
	case 1:
		return d.hosts[int(b/4)%len(d.hosts)].ID()
	}
	return netsim.PauseNone
}

// rateFor decodes a rate: none, a sliver, a share of the fastest link, or
// line rate.
func rateFor(b byte) int64 {
	switch b % 4 {
	case 0:
		return 0
	case 1:
		return int64(b) * 100_000
	case 2:
		return int64(b) * 4_000_000
	}
	return 1e9
}

// flowOf and subOf decode a flow: eight flows, mostly on one path, so a
// list's entries see their acknowledgments often.
func flowOf(b byte) netsim.FlowID { return netsim.FlowID(b%8 + 1) }
func subOf(b byte) int {
	if b%8 == 0 {
		return 1
	}
	return 0
}

// forward builds a forward packet of kind for egress l.
func (d *switchDiff) forward(in *ops, l *netsim.Link, kind netsim.Kind) *netsim.Packet {
	id, sub := in.next(), in.next()
	h := &netsim.SchedHeader{
		Rate:    rateFor(in.next()),
		PauseBy: d.nodeFor(in.next()),
		TTrans:  sim.Time(in.next()%64) * 50 * sim.Microsecond,
	}
	if dl := in.next(); dl%2 == 0 {
		h.Deadline = d.sim.Now() + sim.Time(dl)*100*sim.Microsecond
	}
	return d.packet(l, kind, flowOf(id), subOf(sub), h)
}

// reverse builds the acknowledgment of a forward packet that left by l: it
// arrives over l's peer.
func (d *switchDiff) reverse(in *ops, l *netsim.Link) *netsim.Packet {
	id, sub := in.next(), in.next()
	h := &netsim.SchedHeader{
		Rate:       rateFor(in.next()),
		PauseBy:    d.nodeFor(in.next()),
		InterProbe: float64(in.next()) / 32,
	}
	if rtt := in.next(); rtt%4 != 0 {
		h.RTT = sim.Time(rtt) * 2 * sim.Microsecond
	}
	kind := []netsim.Kind{netsim.SYNACK, netsim.ACK, netsim.PROBEACK, netsim.ACK}[id%4]
	return d.packet(l, kind, flowOf(id), subOf(sub), h)
}

// packet builds a packet that crosses l.
func (d *switchDiff) packet(l *netsim.Link, kind netsim.Kind, id netsim.FlowID, sub int, h *netsim.SchedHeader) *netsim.Packet {
	return &netsim.Packet{Flow: id, Subflow: sub, Kind: kind, Wire: netsim.MTU, Path: []*netsim.Link{l}, Hdr: h}
}

// process hands the packet to both logics, each with its own copy of the
// header, and compares what they return and keep.
func (d *switchDiff) process(pkt *netsim.Packet) {
	l := pkt.Path[0]
	in, out := l, l
	if !pkt.Kind.Forward() {
		in, out = l.Peer, nil
	}
	refHdr := *pkt.Hdr.(*netsim.SchedHeader)
	refPkt := *pkt
	refPkt.Hdr = &refHdr
	d.got.Process(d.sw, pkt, in, out)
	d.ref.Process(d.sw, &refPkt, in, out)
	d.compare(pkt.Hdr.(*netsim.SchedHeader), &refHdr)
}

// compare fails the test on the first difference between the logics.
func (d *switchDiff) compare(got, ref *netsim.SchedHeader) {
	d.tb.Helper()
	if got != nil && *got != *ref {
		d.fail("header %+v, reference %+v", *got, *ref)
	}
	for _, l := range d.links {
		g, r := d.got.states[l.ID], d.ref.states[l.ID]
		if (g == nil) != (r == nil) {
			d.fail("link %d: state present %v, reference %v", l.ID, g != nil, r != nil)
		}
		if g == nil {
			continue
		}
		if err := d.sameState(g, r); err != nil {
			d.fail("link %d: %v", l.ID, err)
		}
		if err := listInvariants(g); err != nil {
			d.fail("link %d: %v", l.ID, err)
		}
	}
}

// sameState returns the first difference between a link's two states.
func (d *switchDiff) sameState(g *linkState, r *refLinkState) error {
	if len(g.flows) != len(r.flows) {
		return fmt.Errorf("list length %d, reference %d", len(g.flows), len(r.flows))
	}
	for i := range g.flows {
		if *g.flows[i] != *r.flows[i] {
			return fmt.Errorf("entry %d %+v, reference %+v", i, *g.flows[i], *r.flows[i])
		}
	}
	for j := 0; j <= len(g.flows)+1; j++ {
		if a, b := g.availbw(j), r.availbw(j); a != b {
			return fmt.Errorf("availbw(%d) = %d, reference %d", j, a, b)
		}
	}
	type ctl struct {
		capacity, rcpN, rcpPrevN int
		avgRTT, lastC, lastAcc   sim.Time
		c                        int64
		accKey                   flowKey
		accepted                 bool
	}
	gc := ctl{g.capacity(), len(g.rcpSeen), g.rcpPrevN, g.avgRTT(), g.lastCUpdate, g.lastAccept, g.c, g.lastAcceptKey, g.everAccepted}
	rc := ctl{r.capacity(), len(r.rcpSeen), r.rcpPrevN, r.avgRTT(), r.lastCUpdate, r.lastAccept, r.c, r.lastAcceptKey, r.everAccepted}
	if gc != rc {
		return fmt.Errorf("controller %+v, reference %+v", gc, rc)
	}
	return nil
}

func (d *switchDiff) fail(format string, args ...any) {
	d.tb.Helper()
	d.tb.Fatalf("op %d at %v: %s", d.op, d.sim.Now(), fmt.Sprintf(format, args...))
}

// newDiffFrom decodes the test's setup from the stream's first bytes: a
// configuration and M.
func newDiffFrom(tb testing.TB, in *ops) *switchDiff {
	cfg := diffConfigs[int(in.next())%len(diffConfigs)]()
	m := maxList
	if b := in.next(); b%2 == 0 {
		m = 1 + int(b/2)%8
	}
	return newSwitchDiff(tb, cfg, m)
}

// TestSwitchLogicMatchesReference runs seeded random programs through
// every configuration, with the default M and a small one.
func TestSwitchLogicMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		rng := rand.New(rand.NewSource(seed))
		b := make([]byte, 6000)
		rng.Read(b)
		b[0] = byte(seed) // the configuration
		b[1] = byte(seed/int64(len(diffConfigs))) * 7
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			in := &ops{b: b}
			newDiffFrom(t, in).run(in, 2000)
		})
	}
}

// FuzzSwitchLogicMatchesReference decodes bytes into a configuration, M
// and a program of SYN/DATA/PROBE/TERM packets, acknowledgments, clock
// steps and stale-timeout jumps, fallback floods, switch crashes and
// standing queues, and requires the production logic to match the
// reference after every call. The seed corpus under testdata/fuzz — a
// list filling past M, κ falling under a long list, T_i growing, a crash
// mid-flow, a tie comparator, floods under a small M — replays as unit
// cases under plain go test.
func FuzzSwitchLogicMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		in := &ops{b: data}
		newDiffFrom(t, in).run(in, 4096)
	})
}
