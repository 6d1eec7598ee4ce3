package netsim

import (
	"math"

	"pdq/internal/params"
)

// Qdisc is a link queueing discipline: the policy points carved out of
// the link's serializer (DESIGN.md §9). A discipline owns two decisions
// at enqueue time — admission (the drop policy) and marking (e.g. ECN
// threshold marking) — and, when it also implements Scheduler, the
// dequeue order of waiting packets.
//
// A nil qdisc is the built-in tail-drop FIFO: Link.Enqueue inlines its
// admission check so the zero-allocation timestamp-serializer fast path
// of DESIGN.md §3 is untouched. TailDrop exists as the explicit form of
// that default; installing it via SetQdisc normalizes back to nil.
type Qdisc interface {
	// Admit reports whether pkt may enter the queue; backlog is the
	// bytes already held, including the packet in service. Returning
	// false drops the packet (counted in Drops).
	Admit(l *Link, pkt *Packet, backlog int) bool
	// OnEnqueue runs once pkt is admitted, before the backlog is
	// charged with it: marking disciplines set header bits here.
	OnEnqueue(l *Link, pkt *Packet, backlog int)
}

// Scheduler is a Qdisc whose dequeue order may differ from arrival
// order (e.g. strict priority). The link routes waiting packets through
// Push/Pop and serializes one packet at a time, instead of stamping
// serialization times at enqueue: out-of-order dequeue makes those
// times unknowable up front (DESIGN.md §9).
type Scheduler interface {
	Qdisc
	// Push buffers a packet that must wait for the serializer.
	Push(pkt *Packet)
	// Pop removes and returns the next packet to serialize, or nil.
	Pop() *Packet
	// Len returns the number of packets buffered.
	Len() int
}

// TailDrop is the default discipline, identical to a nil qdisc: FIFO
// order, drop when the packet would overflow QueueCap, no marking.
type TailDrop struct{}

// Admit implements Qdisc.
func (TailDrop) Admit(l *Link, pkt *Packet, backlog int) bool {
	return backlog+pkt.Wire <= l.QueueCap
}

// OnEnqueue implements Qdisc.
func (TailDrop) OnEnqueue(*Link, *Packet, int) {}

// DefaultECNThreshold is ECNFIFO's marking threshold when none is
// configured: 30 KB, about 20 full-size packets — the DCTCP paper's K
// for 1 Gbps links.
const DefaultECNThreshold = 30 << 10

// ECNFIFO is the tail-drop FIFO plus ECN threshold marking — the
// switch side of DCTCP: a packet arriving to a backlog above Threshold
// bytes gets its CE (congestion experienced) bit set, and the receiver
// echoes CE back to the sender as ECE on the acknowledgment. Dequeue
// order is arrival order, so the discipline rides the link's zero-alloc
// timestamp serializer.
type ECNFIFO struct {
	TailDrop      // admission stays shared-buffer tail drop at QueueCap
	Threshold int // marking threshold in bytes; <=0 means DefaultECNThreshold
}

// OnEnqueue implements Qdisc: mark when the instantaneous backlog at
// arrival exceeds the threshold.
func (q *ECNFIFO) OnEnqueue(l *Link, pkt *Packet, backlog int) {
	k := q.Threshold
	if k <= 0 {
		k = DefaultECNThreshold
	}
	if backlog > k {
		pkt.CE = true
	}
}

// DefaultPrioBands is the band count of the strict-priority discipline
// when none is configured (the 8 hardware queues commodity switches
// expose).
const DefaultPrioBands = 8

// MaxPrioBands bounds Prio's bands: pFabric, the one protocol that sets
// priorities, never picks a band past 63, so more would stay empty.
const MaxPrioBands = 64

// Prio is a strict-priority multi-band queue keyed by Packet.Prio:
// band 0 is served first, and a lower band never transmits while a
// higher one holds a packet. Within a band order is FIFO. Priorities
// beyond the last band collapse into it. Waiting packets are threaded
// through their intrusive qNext links, so the discipline allocates only
// its fixed band table, once per link.
//
// Admission is shared-buffer tail drop at QueueCap (a packet is never
// displaced once queued), which is what commodity strict-priority
// hardware does; pFabric's idealized lowest-priority-first dropping is
// approximated by the small per-band backlogs priority dequeue keeps.
type Prio struct {
	TailDrop // admission stays shared-buffer tail drop at QueueCap

	head, tail []*Packet // per-band intrusive FIFOs
	n          int       // packets buffered
}

// NewPrio returns a strict-priority discipline with the given number of
// bands, at least one.
func NewPrio(bands int) *Prio {
	return &Prio{head: make([]*Packet, bands), tail: make([]*Packet, bands)}
}

// Bands returns the band count.
func (q *Prio) Bands() int { return len(q.head) }

// Push implements Scheduler.
func (q *Prio) Push(pkt *Packet) {
	b := int(pkt.Prio)
	if b >= len(q.head) {
		b = len(q.head) - 1
	}
	pkt.qNext = nil
	if q.tail[b] != nil {
		q.tail[b].qNext = pkt
	} else {
		q.head[b] = pkt
	}
	q.tail[b] = pkt
	q.n++
}

// Pop implements Scheduler: the head of the highest-priority non-empty
// band.
func (q *Prio) Pop() *Packet {
	for b := range q.head {
		if p := q.head[b]; p != nil {
			q.head[b] = p.qNext
			if q.head[b] == nil {
				q.tail[b] = nil
			}
			p.qNext = nil
			q.n--
			return p
		}
	}
	return nil
}

// Len implements Scheduler.
func (q *Prio) Len() int { return q.n }

// QdiscEntry is a registered queue discipline, constructible by name
// from a declarative parameter map (the scenario layer's per-row
// `qdisc:` field and the pdqsim -list-qdiscs listing).
type QdiscEntry struct {
	Name string
	Doc  string
	// Params documents the accepted parameter names with defaults.
	Params map[string]float64
	// Check, if set, rejects resolved values Make would reinterpret.
	Check func(p map[string]float64) error
	// Make binds resolved params into a per-link factory: every link of
	// a topology gets its own instance, because disciplines may hold
	// per-link state (the priority bands).
	Make func(p map[string]float64) func() Qdisc
}

func (e QdiscEntry) decl() params.Decl {
	return params.Decl{Name: e.Name, Params: e.Params, Check: e.Check}
}

// QdiscList returns the registered disciplines sorted by name.
func QdiscList() []QdiscEntry { return qdiscs.List() }

// MakeQdisc resolves a discipline name and binds validated params into
// a per-link factory, also returning the resolved (default-filled)
// parameters.
func MakeQdisc(name string, given map[string]float64) (func() Qdisc, map[string]float64, error) {
	e, p, err := qdiscs.Resolve(name, given)
	if err != nil {
		return nil, nil, err
	}
	return e.Make(p), p, nil
}

//pdqlint:cellsafe-ok built whole at package init, read-only once cells run
var qdiscs = params.NewRegistry("qdisc", QdiscEntry.decl, []QdiscEntry{
	{
		Name: "tail-drop",
		Doc:  "the default: FIFO order, tail drop at the link's QueueCap, no marking",
		Make: func(map[string]float64) func() Qdisc {
			return func() Qdisc { return TailDrop{} }
		},
	},
	{
		Name:   "ecn",
		Doc:    "tail-drop FIFO that sets the CE bit on packets arriving above `threshold_kb` of backlog (DCTCP switch side)",
		Params: map[string]float64{"threshold_kb": float64(DefaultECNThreshold) / 1024},
		// Under one byte the threshold would truncate to the default.
		Check: func(p map[string]float64) error {
			return params.In("threshold_kb", p["threshold_kb"], 1.0/1024, math.Inf(1))
		},
		Make: func(p map[string]float64) func() Qdisc {
			k := int(p["threshold_kb"] * 1024)
			return func() Qdisc { return &ECNFIFO{Threshold: k} }
		},
	},
	{
		Name:   "prio",
		Doc:    "strict-priority multi-band queue over Packet.Prio (`bands` bands, band 0 first; pFabric switch side)",
		Params: map[string]float64{"bands": DefaultPrioBands},
		Check:  func(p map[string]float64) error { return params.Int("bands", p["bands"], 1, MaxPrioBands) },
		Make: func(p map[string]float64) func() Qdisc {
			b := int(p["bands"])
			return func() Qdisc { return NewPrio(b) }
		},
	},
})
