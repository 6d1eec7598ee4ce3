// Package fault implements deterministic fault injection for the PDQ
// reproduction (DESIGN.md §11): declarative, validated schedules of link
// down/up windows, switch crash/restart events, and Gilbert-Elliott burst
// loss, installed into a built topology as ordinary simulation events.
//
// Faults go through the same (time, seq) event queue as every packet, and
// a schedule is applied in a fixed code order before any flow starts, so
// fault sequence numbers — and therefore the whole execution — are
// byte-identical at any sweep worker count. A run without a schedule pays
// only the nil/bool checks the netsim hooks cost.
//
// PDQ's robustness story is exactly what this exercises: switch state is
// soft state (paper §3.3.1), so crashing a switch wipes its per-link flow
// lists and rate controllers, and the flows recover when senders
// retransmit into the rebuilt state.
package fault

import (
	"fmt"
	"sort"

	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/topo"
	"pdq/internal/trace"
)

// Kind enumerates the fault types.
type Kind uint8

// Fault kinds.
const (
	// LinkDown fails a host's access link (both directions) over a
	// [Down, Up) window. Packets touching the link during the window are
	// lost, including those already in flight.
	LinkDown Kind = iota + 1
	// SwitchCrash wipes a switch's soft state at time At. With a nonzero
	// Restart the switch is also unreachable for [At, At+Restart): every
	// adjacent link is down, so in-flight and newly arriving packets are
	// lost and senders must recover by RTO once it returns.
	SwitchCrash
	// GilbertLoss installs a Gilbert-Elliott burst-loss process on a
	// host's access link (an independent chain per direction) for the
	// whole run.
	GilbertLoss
)

// String returns the spec-level name of the kind.
func (k Kind) String() string {
	switch k {
	case LinkDown:
		return "link-down"
	case SwitchCrash:
		return "switch-crash"
	case GilbertLoss:
		return "gilbert-loss"
	}
	return fmt.Sprintf("fault.Kind(%d)", uint8(k))
}

// Event is one resolved fault. Targets are symbolic indices into the
// topology (Host counts from the end when negative, like
// scenario.LossSpec), resolved against the freshly built topology of each
// cell, so one schedule applies across a sweep whose topology size varies.
//
// The struct marshals canonically (field order is fixed), so a resolved
// schedule can be embedded in cell cache-key material.
type Event struct {
	Kind    Kind         `json:"kind"`
	Host    int          `json:"host,omitempty"`    // LinkDown, GilbertLoss target
	Switch  int          `json:"switch,omitempty"`  // SwitchCrash target
	Down    sim.Time     `json:"down,omitempty"`    // LinkDown: failure onset
	Up      sim.Time     `json:"up,omitempty"`      // LinkDown: recovery
	At      sim.Time     `json:"at,omitempty"`      // SwitchCrash: crash time
	Restart sim.Duration `json:"restart,omitempty"` // SwitchCrash: outage length; 0 = state wipe only

	// Gilbert-Elliott parameters (per-packet probabilities).
	PGB      float64 `json:"p_gb,omitempty"`
	PBG      float64 `json:"p_bg,omitempty"`
	LossGood float64 `json:"loss_good,omitempty"`
	LossBad  float64 `json:"loss_bad,omitempty"`
}

// Schedule is an ordered set of fault events. The zero value and nil are
// both valid empty schedules.
type Schedule struct {
	Events []Event `json:"events"`
}

// Empty reports whether the schedule injects nothing.
func (s *Schedule) Empty() bool { return s == nil || len(s.Events) == 0 }

// HasRandomLoss reports whether the schedule injects stochastic loss
// (Gilbert-Elliott bursts). Loss coins draw from the owning link's
// private stream (keyed by the network seed and link ID), so random
// loss shards freely; the predicate remains for spec introspection.
func (s *Schedule) HasRandomLoss() bool {
	if s == nil {
		return false
	}
	for _, e := range s.Events {
		if e.Kind == GilbertLoss {
			return true
		}
	}
	return false
}

// ShardBlocker returns the reason applying s to a sharded run of sys on
// t would need cross-shard protocol callbacks — and therefore pins the
// cell to the single engine — or "" when the schedule shards freely.
// Two callbacks block: PathUpdater notifications (failover walks sender
// state on every shard) are needed for any link-state transition, and a
// SoftStateResetter switch crash wipes per-link state owned by several
// shards in one atomic instant. Pure Gilbert-Elliott loss blocks
// nothing. The scenario layer consults this before building a shard
// group, so the panics in applySharded are assertions, not gates.
func (s *Schedule) ShardBlocker(t *topo.Topology, sys any) string {
	if s.Empty() {
		return ""
	}
	_, pu := sys.(PathUpdater)
	for _, ev := range s.Events {
		switch ev.Kind {
		case LinkDown:
			if pu {
				return "faults drive path updates"
			}
		case SwitchCrash:
			if _, ok := t.Switches[ev.Switch].Logic.(SoftStateResetter); ok {
				return "switch crash resets soft state"
			}
			if pu && ev.Restart > 0 {
				return "faults drive path updates"
			}
		}
	}
	return ""
}

// HostIndex resolves a possibly-negative host index among n hosts
// (negative counts from the end, -1 = last host): the convention of
// Event.Host and of scenario's FaultSpec.Host and LossSpec.Host.
func HostIndex(i, n int) int {
	if i < 0 {
		return n + i
	}
	return i
}

// Validate checks every event against a topology of the given size and
// returns an actionable error for the first invalid one. It is called at
// scenario compile time so a bad spec fails before any cell runs.
func (s *Schedule) Validate(hosts, switches int) error {
	if s == nil {
		return nil
	}
	for i, ev := range s.Events {
		switch ev.Kind {
		case LinkDown:
			h := HostIndex(ev.Host, hosts)
			if h < 0 || h >= hosts {
				return fmt.Errorf("fault %d (link-down): host %d out of range (topology has %d hosts)", i, ev.Host, hosts)
			}
			if ev.Down < 0 {
				return fmt.Errorf("fault %d (link-down): down_ms must be >= 0", i)
			}
			if ev.Up <= ev.Down {
				return fmt.Errorf("fault %d (link-down): window inverted: up_ms (%v) must be after down_ms (%v)", i, ev.Up, ev.Down)
			}
		case SwitchCrash:
			if ev.Switch < 0 || ev.Switch >= switches {
				return fmt.Errorf("fault %d (switch-crash): switch %d out of range (topology has %d switches)", i, ev.Switch, switches)
			}
			if ev.At < 0 {
				return fmt.Errorf("fault %d (switch-crash): at_ms must be >= 0", i)
			}
			if ev.Restart < 0 {
				return fmt.Errorf("fault %d (switch-crash): restart_ms must be >= 0", i)
			}
		case GilbertLoss:
			h := HostIndex(ev.Host, hosts)
			if h < 0 || h >= hosts {
				return fmt.Errorf("fault %d (gilbert-loss): host %d out of range (topology has %d hosts)", i, ev.Host, hosts)
			}
			for _, p := range []struct {
				name string
				v    float64
			}{{"p_gb", ev.PGB}, {"p_bg", ev.PBG}, {"loss_good", ev.LossGood}, {"loss_bad", ev.LossBad}} {
				if p.v < 0 || p.v > 1 {
					return fmt.Errorf("fault %d (gilbert-loss): %s = %g outside [0, 1]", i, p.name, p.v)
				}
			}
		default:
			return fmt.Errorf("fault %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// SoftStateResetter is implemented by switch logics whose per-link state
// is soft state: ResetLinkState discards everything keyed by the link, to
// be rebuilt from subsequent packets. The PDQ, RCP and D³ switch logics
// implement it; the interface is structural so protocol packages never
// import fault.
type SoftStateResetter interface {
	ResetLinkState(l *netsim.Link)
}

// PathUpdater is implemented by protocol systems that can reroute active
// flows when the topology changes. OnLinkState is called once per link
// transition, after the link state has been updated.
type PathUpdater interface {
	OnLinkState(l *netsim.Link, down bool)
}

// Apply resolves the schedule against a built topology and installs its
// events into the simulation. It must be called after the protocol system
// is installed and before any flow starts, always in the same code
// position, so the events' sequence numbers are a pure function of the
// schedule — that is the whole determinism argument. sys is the protocol
// system; if it implements PathUpdater it is notified of link transitions
// so it can fail over active flows. Transitions are recorded into ct
// (nil-safe) for the trace plane.
func (s *Schedule) Apply(t *topo.Topology, sys any, ct *trace.CellTrace) {
	if s.Empty() {
		return
	}
	if t.Net.Sharded() {
		s.applySharded(t, sys, ct)
		return
	}
	pu, _ := sys.(PathUpdater)
	sm := t.Sim()
	for _, ev := range s.Events {
		switch ev.Kind {
		case LinkDown:
			h := HostIndex(ev.Host, len(t.Hosts))
			link := t.Hosts[h].Access
			target := fmt.Sprintf("host%d", h)
			kind := ev.Kind.String()
			down, up := ev.Down, ev.Up
			sm.At(down, func() {
				link.SetDuplexDown(true)
				ct.RecordFault(trace.FaultRecord{Kind: kind, Target: target, At: down, Down: true})
				if pu != nil {
					pu.OnLinkState(link, true)
				}
			})
			sm.At(up, func() {
				link.SetDuplexDown(false)
				ct.RecordFault(trace.FaultRecord{Kind: kind, Target: target, At: up, Down: false})
				if pu != nil {
					pu.OnLinkState(link, false)
				}
			})
		case SwitchCrash:
			sw := t.Switches[ev.Switch]
			links := t.Adjacent(sw.ID())
			target := fmt.Sprintf("switch%d", ev.Switch)
			kind := ev.Kind.String()
			at, restart := ev.At, ev.Restart
			sm.At(at, func() {
				// The crash wipes soft state on every link the switch
				// schedules (its outgoing directions — both data and
				// acknowledgment processing key state there).
				if r, ok := sw.Logic.(SoftStateResetter); ok {
					for _, l := range links {
						r.ResetLinkState(l)
					}
				}
				ct.RecordFault(trace.FaultRecord{Kind: kind, Target: target, At: at, Down: true})
				if restart > 0 {
					for _, l := range links {
						l.SetDuplexDown(true)
					}
					if pu != nil {
						for _, l := range links {
							pu.OnLinkState(l, true)
						}
					}
				}
			})
			if restart > 0 {
				sm.At(at+restart, func() {
					for _, l := range links {
						l.SetDuplexDown(false)
					}
					ct.RecordFault(trace.FaultRecord{Kind: kind, Target: target, At: at + restart, Down: false})
					if pu != nil {
						for _, l := range links {
							pu.OnLinkState(l, false)
						}
					}
				})
			}
		case GilbertLoss:
			h := HostIndex(ev.Host, len(t.Hosts))
			link := t.Hosts[h].Access
			// One independent chain per direction, installed for the
			// whole run — no event needed, and no fault record: loss is
			// an environment property here, not a transition.
			link.SetGE(&netsim.GilbertElliott{PGB: ev.PGB, PBG: ev.PBG, LossGood: ev.LossGood, LossBad: ev.LossBad})
			if link.Peer != nil {
				link.Peer.SetGE(&netsim.GilbertElliott{PGB: ev.PGB, PBG: ev.PBG, LossGood: ev.LossGood, LossBad: ev.LossBad})
			}
		}
	}
}

// applySharded installs the schedule into a sharded run (DESIGN.md §12.5).
// Fault state is split by ownership: each affected link direction gets (a)
// an immutable downPlan — the sorted toggle timeline — read by delivery
// events on the To shard, and (b) toggle events for its From-owned down
// flag, scheduled on the owner shard's engine. Both views realize the same
// timeline, and a toggle at exactly t precedes same-instant packet events
// on both sides (setup events carry lower seqs; downAt uses <=), so drops
// match the single-engine run exactly.
//
// Protocols needing link-state callbacks or soft-state resets pin the
// cell to the single engine (ShardBlocker); reaching this branch with
// one is a scenario-layer routing bug, hence the panics. Gilbert-
// Elliott processes install exactly as on the single engine: each chain
// draws coins from its link's private stream on the owner shard.
//
// Fault records go into ct (nil-safe) at setup rather than from the
// toggle events — the timeline is static, and recording from owner-
// shard events would write the trace ring from several workers. Sorting
// the records by time, spec order on ties, reproduces the single-engine
// emission order; the one divergence is a transition scheduled beyond
// the run horizon, recorded here but never fired there.
func (s *Schedule) applySharded(t *topo.Topology, sys any, ct *trace.CellTrace) {
	if _, ok := sys.(PathUpdater); ok {
		panic("fault: sharded run with a path-updating protocol system")
	}
	type assign struct {
		at   sim.Time
		down bool
	}
	net := t.Net
	plans := make([][]assign, len(net.Links()))
	addBoth := func(l *netsim.Link, at sim.Time, down bool) {
		plans[l.ID] = append(plans[l.ID], assign{at, down})
		if l.Peer != nil {
			plans[l.Peer.ID] = append(plans[l.Peer.ID], assign{at, down})
		}
	}
	var recs []trace.FaultRecord
	record := func(kind, target string, at sim.Time, down bool) {
		if ct != nil {
			recs = append(recs, trace.FaultRecord{Kind: kind, Target: target, At: at, Down: down})
		}
	}
	for _, ev := range s.Events {
		switch ev.Kind {
		case LinkDown:
			h := HostIndex(ev.Host, len(t.Hosts))
			link := t.Hosts[h].Access
			addBoth(link, ev.Down, true)
			addBoth(link, ev.Up, false)
			target := fmt.Sprintf("host%d", h)
			record(ev.Kind.String(), target, ev.Down, true)
			record(ev.Kind.String(), target, ev.Up, false)
		case SwitchCrash:
			sw := t.Switches[ev.Switch]
			if _, ok := sw.Logic.(SoftStateResetter); ok {
				panic("fault: sharded switch-crash on a soft-state switch logic")
			}
			target := fmt.Sprintf("switch%d", ev.Switch)
			record(ev.Kind.String(), target, ev.At, true)
			if ev.Restart > 0 {
				for _, l := range t.Adjacent(sw.ID()) {
					addBoth(l, ev.At, true)
					addBoth(l, ev.At+ev.Restart, false)
				}
				record(ev.Kind.String(), target, ev.At+ev.Restart, false)
			}
		case GilbertLoss:
			// Installed for the whole run, like Apply: no event, no record
			// (loss is an environment property, not a transition), and the
			// chains draw from the owning link's private stream.
			link := t.Hosts[HostIndex(ev.Host, len(t.Hosts))].Access
			link.SetGE(&netsim.GilbertElliott{PGB: ev.PGB, PBG: ev.PBG, LossGood: ev.LossGood, LossBad: ev.LossBad})
			if link.Peer != nil {
				link.Peer.SetGE(&netsim.GilbertElliott{PGB: ev.PGB, PBG: ev.PBG, LossGood: ev.LossGood, LossBad: ev.LossBad})
			}
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].At < recs[j].At })
	for _, r := range recs {
		ct.RecordFault(r)
	}
	// Per direction: collapse the assignments (stable by time, last spec
	// event wins at equal instants, exactly the legacy flag's final state)
	// into an alternating toggle timeline, then install both views.
	for _, l := range net.Links() {
		as := plans[l.ID]
		if len(as) == 0 {
			continue
		}
		sort.SliceStable(as, func(i, j int) bool { return as[i].at < as[j].at })
		state := false
		var toggles []sim.Time
		for i := 0; i < len(as); {
			j := i
			for j+1 < len(as) && as[j+1].at == as[i].at {
				j++
			}
			if v := as[j].down; v != state {
				state = v
				toggles = append(toggles, as[i].at)
			}
			i = j + 1
		}
		l.SetDownPlan(toggles)
		own := net.SimFor(l.From.ID())
		link := l
		down := false
		for _, at := range toggles {
			down = !down
			v := down
			own.At(at, func() { link.SetDown(v) })
		}
	}
}
