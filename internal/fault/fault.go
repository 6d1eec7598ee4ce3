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

// Target is what a simulator supplies for a schedule to act on it: the
// walk in Walk resolves targets, toggles links and records transitions
// the same way for both simulators.
type Target struct {
	// At schedules action at virtual instant at.
	At func(at sim.Time, action func())
	// Crash wipes the soft state a crash of sw loses; links are the links
	// around sw.
	Crash func(sw *netsim.Switch, links []*netsim.Link)
	// Link is told of each link transition, after the link changed state.
	Link func(l *netsim.Link, down bool)
}

// Apply installs the schedule into a packet-level run on t as engine
// events. It must be called after the protocol system is installed and
// before any flow starts, always in the same code position, so the events'
// sequence numbers are a pure function of the schedule — that is the whole
// determinism argument. A crash resets the per-link soft state of a switch
// logic that is a SoftStateResetter; sys, the protocol system, hears of
// link transitions when it is a PathUpdater, so it can fail over active
// flows. Transitions are recorded into ct (nil-safe) for the trace plane.
func (s *Schedule) Apply(t *topo.Topology, sys any, ct *trace.CellTrace) {
	if s.Empty() {
		return
	}
	pu, _ := sys.(PathUpdater)
	sm := t.Sim()
	s.Walk(t, Target{
		At: func(at sim.Time, action func()) { sm.At(at, action) },
		// The crash wipes soft state on every link the switch schedules
		// (its outgoing directions — both data and acknowledgment
		// processing key state there).
		Crash: func(sw *netsim.Switch, links []*netsim.Link) {
			if r, ok := sw.Logic.(SoftStateResetter); ok {
				for _, l := range links {
					r.ResetLinkState(l)
				}
			}
		},
		Link: func(l *netsim.Link, down bool) {
			if pu != nil {
				pu.OnLinkState(l, down)
			}
		},
	}, ct)
}

// Walk resolves the schedule against a built topology and schedules its
// actions through tg, in event order: a link-down window toggles the
// host's access link at each end; a switch crash resets through tg.Crash
// and, with a restart window, takes every link around the switch down
// until it returns; Gilbert-Elliott loss is installed on the access link
// for the whole run. Each transition is recorded into ct, then told to
// tg.Link.
func (s *Schedule) Walk(t *topo.Topology, tg Target, ct *trace.CellTrace) {
	if s.Empty() {
		return
	}
	toggle := func(links []*netsim.Link, down bool, rec trace.FaultRecord) {
		for _, l := range links {
			l.SetDuplexDown(down)
		}
		ct.RecordFault(rec)
		for _, l := range links {
			tg.Link(l, down)
		}
	}
	for _, ev := range s.Events {
		kind := ev.Kind.String()
		switch ev.Kind {
		case LinkDown:
			h := HostIndex(ev.Host, len(t.Hosts))
			links := []*netsim.Link{t.Hosts[h].Access}
			target := fmt.Sprintf("host%d", h)
			down, up := ev.Down, ev.Up
			tg.At(down, func() { toggle(links, true, trace.FaultRecord{Kind: kind, Target: target, At: down, Down: true}) })
			tg.At(up, func() { toggle(links, false, trace.FaultRecord{Kind: kind, Target: target, At: up, Down: false}) })
		case SwitchCrash:
			sw := t.Switches[ev.Switch]
			links := t.Adjacent(sw.ID())
			target := fmt.Sprintf("switch%d", ev.Switch)
			at, restart := ev.At, ev.Restart
			var outage []*netsim.Link // none when the crash only wipes state
			if restart > 0 {
				outage = links
			}
			tg.At(at, func() {
				tg.Crash(sw, links)
				toggle(outage, true, trace.FaultRecord{Kind: kind, Target: target, At: at, Down: true})
			})
			if restart > 0 {
				tg.At(at+restart, func() {
					toggle(outage, false, trace.FaultRecord{Kind: kind, Target: target, At: at + restart, Down: false})
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
