package flowsim

import (
	"pdq/internal/fault"
	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/trace"
)

// ApplyFaults installs a fault schedule into the fluid simulation as
// step-boundary hooks (DESIGN.md §11), walked by fault.Schedule.Walk. The
// fluid analogs of the packet faults:
//
//   - link-down: the link's capacity is zero for the window, so flows
//     crossing it are preempted to rate 0 (or failed over when the
//     topology has a surviving route) and resume when it returns — the
//     fluid equivalent of stalling and recovering by RTO;
//   - switch-crash: cached criticality estimates of active flows are
//     reset (the switch's soft ranking state is gone) and, with a restart
//     window, every adjacent link is down for its duration.
//
// The fluid model has no packet loss, just like it has no timeouts
// (package comment), so scenario compile refuses gilbert-loss on flow-level
// rows; a schedule that reaches here with one installs a chain nothing
// reads.
//
// Must be called before Run, after every Start of the initial workload
// has been issued or not — hooks only read simulation state when they
// fire. Transitions are recorded into ct (nil-safe).
func (s *Sim) ApplyFaults(sch *fault.Schedule, ct *trace.CellTrace) {
	sch.Walk(s.Topo, fault.Target{
		At: func(at sim.Time, action func()) { s.AddHook(at, func(*Sim) { action() }) },
		// The allocator's per-flow soft state (cached criticality
		// estimates) lived in the crashed fabric; it is relearned from
		// scratch.
		Crash: func(*netsim.Switch, []*netsim.Link) {
			for _, f := range s.active {
				f.crit = 0
			}
		},
		Link: func(l *netsim.Link, down bool) {
			if down {
				s.reroute(l)
			}
		},
	}, ct)
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
		if f == nil || !netsim.PathUses(f.Path, l) {
			continue
		}
		src, dst := s.Topo.Hosts[f.Src], s.Topo.Hosts[f.Dst]
		if np := s.Topo.Detour(src, dst); np != nil {
			f.Path = np
		}
	}
}
