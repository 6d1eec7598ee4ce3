package flowsim

import (
	"fmt"

	"pdq/internal/fault"
	"pdq/internal/netsim"
	"pdq/internal/trace"
)

// ApplyFaults installs a fault schedule into the fluid simulation as
// step-boundary hooks (DESIGN.md §11). The fluid analogs of the packet
// faults:
//
//   - link-down: the link's capacity is zero for the window, so flows
//     crossing it are preempted to rate 0 (or failed over when the
//     topology has a surviving route) and resume when it returns — the
//     fluid equivalent of stalling and recovering by RTO;
//   - switch-crash: cached criticality estimates of active flows are
//     reset (the switch's soft ranking state is gone) and, with a restart
//     window, every adjacent link is down for its duration;
//   - gilbert-loss: ignored — the fluid model has no packet loss, just
//     like it has no timeouts (package comment).
//
// Must be called before Run, after every Start of the initial workload
// has been issued or not — hooks only read simulation state when they
// fire. Transitions are recorded into ct (nil-safe).
func (s *Sim) ApplyFaults(sch *fault.Schedule, ct *trace.CellTrace) {
	if sch.Empty() {
		return
	}
	for _, ev := range sch.Events {
		switch ev.Kind {
		case fault.LinkDown:
			h := fault.HostIndex(ev.Host, len(s.Topo.Hosts))
			link := s.Topo.Hosts[h].Access
			target := fmt.Sprintf("host%d", h)
			kind := ev.Kind.String()
			down, up := ev.Down, ev.Up
			s.AddHook(down, func(s *Sim) {
				link.SetDuplexDown(true)
				ct.RecordFault(trace.FaultRecord{Kind: kind, Target: target, At: down, Down: true})
				s.reroute(link)
			})
			s.AddHook(up, func(s *Sim) {
				link.SetDuplexDown(false)
				ct.RecordFault(trace.FaultRecord{Kind: kind, Target: target, At: up, Down: false})
			})
		case fault.SwitchCrash:
			sw := s.Topo.Switches[ev.Switch]
			links := s.Topo.Adjacent(sw.ID())
			target := fmt.Sprintf("switch%d", ev.Switch)
			kind := ev.Kind.String()
			at, restart := ev.At, ev.Restart
			s.AddHook(at, func(s *Sim) {
				// The allocator's per-flow soft state (cached criticality
				// estimates) lived in the crashed fabric; it is relearned
				// from scratch.
				for _, f := range s.active {
					f.crit = 0
				}
				ct.RecordFault(trace.FaultRecord{Kind: kind, Target: target, At: at, Down: true})
				if restart > 0 {
					for _, l := range links {
						l.SetDuplexDown(true)
					}
					for _, l := range links {
						s.reroute(l)
					}
				}
			})
			if restart > 0 {
				s.AddHook(at+restart, func(s *Sim) {
					for _, l := range links {
						l.SetDuplexDown(false)
					}
					ct.RecordFault(trace.FaultRecord{Kind: kind, Target: target, At: at + restart, Down: false})
				})
			}
		case fault.GilbertLoss:
			// No packet loss at the fluid level; nothing to install.
		}
	}
}

// reroute fails over every flow — active or still pending — whose path
// crosses either direction of l onto the shortest surviving route, when
// one exists; flows with no alternative keep their path and stall at rate
// zero until the link returns.
func (s *Sim) reroute(l *netsim.Link) {
	s.rerouteAll(s.active, l)
	s.rerouteAll(s.pending[s.next:], l)
}

func (s *Sim) rerouteAll(flows []*FlowState, l *netsim.Link) {
	for _, f := range flows {
		if f == nil || !usesLink(f.Path, l) {
			continue
		}
		src, dst := s.Topo.Hosts[f.Src], s.Topo.Hosts[f.Dst]
		if np := s.Topo.PathExcluding(src, dst, (*netsim.Link).Down); np != nil {
			f.Path = np
		}
	}
}

// usesLink reports whether path traverses l in either direction.
func usesLink(path []*netsim.Link, l *netsim.Link) bool {
	for _, x := range path {
		if x == l || x == l.Peer {
			return true
		}
	}
	return false
}
