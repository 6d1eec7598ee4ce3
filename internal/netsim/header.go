package netsim

import "pdq/internal/sim"

// PauseNone marks an empty "pauseby" field (no switch has paused the flow).
const PauseNone NodeID = -1

// SchedHeader is the PDQ scheduling header (§3, §7). On the wire it is 16
// bytes: four 4-byte fields R_H, P_H, D_H, T_H. On the reverse path the
// receiver reuses the D_H and T_H fields to carry I_S (inter-probing time)
// and RTT_S, which is possible because D_H/T_H are consumed on the forward
// path only (§7, "Deployment").
//
// The simulator carries the decoded struct with the packet and charges the
// 16 bytes on the wire through SchedHdrWire; it never encodes them.
type SchedHeader struct {
	Rate     int64    // R_H: sending-rate feedback, bits/s
	PauseBy  NodeID   // P_H: switch that paused the flow, or PauseNone
	Deadline sim.Time // D_H: absolute flow deadline; 0 = no deadline (forward)
	TTrans   sim.Time // T_H: expected remaining transmission time (forward)

	InterProbe float64  // I_S: inter-probing interval in RTTs (reverse)
	RTT        sim.Time // RTT_S: sender-measured RTT (reverse)
}
