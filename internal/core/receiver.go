package core

import (
	"pdq/internal/netsim"
	"pdq/internal/sim"
	"pdq/internal/workload"
)

// recvFlow is the receiver-side state of one flow. Multipath subflows
// share it — the paper's single shared resequencing buffer (§6) — so
// completion is detected on the union of bytes received over all paths.
type recvFlow struct {
	ag       *Agent
	eng      *sim.Sim // destination host's owner engine
	flow     workload.Flow
	numPkts  int
	got      []bool
	gotBytes int64
	done     bool
	revPaths [][]*netsim.Link // cached ACK path, indexed by subflow
}

func newRecvFlow(ag *Agent, f workload.Flow, eng *sim.Sim) *recvFlow {
	n := int((f.Size + netsim.MSS - 1) / netsim.MSS)
	return &recvFlow{ag: ag, eng: eng, flow: f, numPkts: n, got: make([]bool, n),
		revPaths: make([][]*netsim.Link, ag.sys.Cfg.Subflows)}
}

func (r *recvFlow) payload(i int) int {
	if i < r.numPkts-1 {
		return netsim.MSS
	}
	return int(r.flow.Size - int64(r.numPkts-1)*netsim.MSS)
}

// onForward handles SYN, DATA, PROBE and TERM at the receiver: it records
// delivered bytes and sends the packet back as its own acknowledgment. A
// TERM is not answered, so its life ends here.
//
//pdq:hotpath
func (r *recvFlow) onForward(pkt *netsim.Packet) {
	if pkt.Kind == netsim.TERM {
		r.done = true
		pkt.Release()
		return
	}
	if pkt.Kind == netsim.DATA && !r.done {
		idx := int(pkt.Seq / netsim.MSS)
		if idx >= 0 && idx < r.numPkts && !r.got[idx] {
			r.got[idx] = true
			r.gotBytes += int64(r.payload(idx))
			if r.gotBytes >= r.flow.Size {
				r.done = true
				r.ag.sys.Collector.Finish(r.flow.ID, r.eng.Now())
			}
		}
	}
	r.ack(pkt)
}

// ack turns pkt around in place as its acknowledgment: the scheduling
// header rides back to the sender on the exact reverse path of the data
// packet, with R_H lowered to the receiver's own capability (§3.2).
//
//pdq:hotpath
func (r *recvFlow) ack(pkt *netsim.Packet) {
	rev := r.revPaths[pkt.Subflow]
	if rev == nil {
		rev = netsim.ReversePath(pkt.Path)
		r.revPaths[pkt.Subflow] = rev
	}
	// Avoid overrunning the receiver: R_H may not exceed the rate the
	// receiver can take in (its NIC rate here; §3.2).
	hdr := netsim.HeaderOf[netsim.SchedHeader](pkt)
	if nic := r.ag.host.NICRate(); hdr.Rate > nic {
		hdr.Rate = nic
	}
	pkt.TurnAround(rev)
	r.ag.sys.net().Send(pkt)
}
