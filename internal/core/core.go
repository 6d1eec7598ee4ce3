// Package core implements PDQ — Preemptive Distributed Quick flow
// scheduling (Hong, Caesar, Godfrey, SIGCOMM 2012) — at packet level on top
// of the netsim substrate.
//
// PDQ is a distributed flow-scheduling layer that approximates preemptive
// centralized disciplines (Earliest Deadline First, Shortest Job First)
// using only FIFO tail-drop queues. Senders advertise flow state in a
// 16-byte scheduling header; switches keep a short per-link list of the
// most critical flows, grant the full available rate to the most critical
// ones and pause the rest (§3.3). The package implements the complete
// protocol:
//
//   - the switch flow controller (Algorithms 1–3) and the sender's and
//     receiver's side of it — the scheduling header, T_S, the rate clamp —
//     on the paced sender and receiver of internal/protocol/xfer, which
//     PDQ shares with its RCP and D3 baselines,
//   - the per-link rate controller (§3.3.3),
//   - Early Start (seamless flow switching, §3.3.2),
//   - Early Termination (§3.1),
//   - Suppressed Probing (§3.3.2),
//   - dampening of accept bursts (§3.3.2),
//   - the RCP fallback for flows beyond the bounded flow list (§3.3.1),
//   - Multipath PDQ (§6).
//
// Variants used throughout the paper's evaluation are constructed with
// Basic, ES, ESET and Full.
package core

import (
	"pdq/internal/netsim"
	"pdq/internal/sim"
)

// Config selects PDQ features and constants. The zero value is PDQ(Basic)
// with the paper's defaults; use Full for the complete protocol.
type Config struct {
	EarlyStart        bool // ES: accept nearly-completed flows early (§3.3.2)
	EarlyTermination  bool // ET: give up on hopeless deadline flows (§3.1)
	SuppressedProbing bool // SP: scale probe intervals by list index (§3.3.2)

	// K is the Early Start threshold: a sending flow is nearly completed
	// when T_i < K·RTT_i, and at most K RTTs worth of such flows are
	// started early. The paper uses K=2.
	K float64

	// X is the Suppressed Probing factor: a paused flow at list index i
	// probes at most every X·i RTTs. The paper uses 0.2.
	X float64

	// MaxList is M, the hard bound on flows remembered per link (§3.3.1).
	// Less critical flows fall back to the embedded RCP controller.
	MaxList int

	// RatePDQ is r_PDQ, the per-link aggregate rate for PDQ traffic; 0
	// means the full link rate (§3.3.3).
	RatePDQ int64

	// Dampening is the interval after accepting a non-sending flow during
	// which no other paused flow is accepted (§3.3.2, "a given small
	// period of time").
	Dampening sim.Duration

	// MinGrantFrac is the smallest rate a switch will grant, as a
	// fraction of the link rate; anything lower becomes a pause. PDQ's
	// allocation is intentionally bimodal — the most critical flows get
	// their full rate, the rest are paused (§3, §4) — so residual
	// trickles (rate-controller jitter, RCP-fallback slivers) must not
	// keep a flow nominally "sending" at a useless rate, where it would
	// pace packets tens of milliseconds apart instead of probing.
	MinGrantFrac float64

	// InitRTT seeds RTT estimates before the first measurement.
	InitRTT sim.Time

	// RTOmin bounds retransmission timeouts below.
	RTOmin sim.Duration

	// StaleTimeout evicts flows whose state has not been refreshed (e.g.
	// their TERM was lost). Keep well above the largest suppressed
	// probing interval.
	StaleTimeout sim.Duration

	// Subflows > 1 enables Multipath PDQ with that many subflows per
	// flow, striped over ECMP paths (§6).
	Subflows int

	// Less overrides the flow comparator (§3.3: "the operator could
	// easily override the comparator to approximate other scheduling
	// disciplines"): return true when a is more critical than b. It must
	// define a strict total order. nil selects the paper's default
	// EDF → SJF → flow-ID order (Criticality.Less).
	Less func(a, b Criticality) bool
}

func (c Config) withDefaults() Config {
	if c.K == 0 {
		c.K = 2
	}
	if c.X == 0 {
		c.X = 0.2
	}
	if c.MaxList == 0 {
		c.MaxList = 256
	}
	if c.Dampening == 0 {
		c.Dampening = 30 * sim.Microsecond
	}
	if c.MinGrantFrac == 0 {
		c.MinGrantFrac = 0.01
	}
	if c.InitRTT == 0 {
		c.InitRTT = 150 * sim.Microsecond
	}
	if c.RTOmin == 0 {
		c.RTOmin = sim.Millisecond
	}
	if c.StaleTimeout == 0 {
		c.StaleTimeout = 20 * sim.Millisecond
	}
	if c.Subflows < 1 {
		c.Subflows = 1
	}
	return c
}

// Basic returns PDQ(Basic): preemptive scheduling without Early Start,
// Early Termination or Suppressed Probing.
func Basic() Config { return Config{} }

// ES returns PDQ(ES): Basic plus Early Start.
func ES() Config { return Config{EarlyStart: true} }

// ESET returns PDQ(ES+ET): ES plus Early Termination.
func ESET() Config { return Config{EarlyStart: true, EarlyTermination: true} }

// Full returns PDQ(Full): ES + ET + Suppressed Probing.
func Full() Config {
	return Config{EarlyStart: true, EarlyTermination: true, SuppressedProbing: true}
}

// flowKey identifies a (sub)flow at a switch. Subflows of a multipath flow
// compete as independent flows (§6).
type flowKey struct {
	id  netsim.FlowID
	sub int
}

func keyOf(pkt *netsim.Packet) flowKey { return flowKey{pkt.Flow, pkt.Subflow} }

// noDeadline is the internal representation of "no deadline" used by the
// comparator (header encodes it as 0).
const noDeadline = sim.MaxTime

// Criticality is a flow's scheduling priority as seen by a switch. Smaller
// is more critical.
type Criticality struct {
	Deadline sim.Time // absolute deadline; noDeadline if unconstrained
	TTrans   sim.Time // expected remaining transmission time T_i
	Key      flowKey
}

// Less implements the paper's default flow comparator (§3.3): EDF first
// (smaller deadline more critical), then SJF on expected transmission
// time, then flow ID. Deadline-constrained flows dominate unconstrained
// ones because their deadline is finite.
func (a Criticality) Less(b Criticality) bool {
	if a.Deadline != b.Deadline {
		return a.Deadline < b.Deadline
	}
	if a.TTrans != b.TTrans {
		return a.TTrans < b.TTrans
	}
	if a.Key.id != b.Key.id {
		return a.Key.id < b.Key.id
	}
	return a.Key.sub < b.Key.sub
}

// internalDeadline decodes the header's deadline field (0 = none).
func internalDeadline(d sim.Time) sim.Time {
	if d == 0 {
		return noDeadline
	}
	return d
}
