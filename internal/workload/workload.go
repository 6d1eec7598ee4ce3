// Package workload generates the traffic used in the PDQ paper's
// evaluation (§5.1, §5.3): flow sizes (uniform, Pareto, and synthetic
// equivalents of the two measured data-center distributions), exponential
// deadlines with a 3 ms floor, arrival processes, and the four sending
// patterns of §5.3 (aggregation, stride, staggered probability, random
// permutation).
package workload

import (
	"fmt"
	"math"
	"math/rand"

	"pdq/internal/sim"
)

// Flow describes one flow to be run through a simulator.
type Flow struct {
	ID       uint64
	Src, Dst int      // host indices in the topology
	Size     int64    // bytes
	Start    sim.Time // arrival time
	Deadline sim.Time // relative to Start; 0 = deadline-unconstrained
}

// CheckStart panics unless f has bytes to send and two distinct hosts.
// Both simulators call it as they register a flow, so they refuse the
// same flows; the scenario layer reports the panic as the cell's failure.
func (f Flow) CheckStart() {
	if f.Size <= 0 || f.Src == f.Dst {
		panic(fmt.Sprintf("workload: flow %d of %d bytes from host %d to host %d: a flow needs a positive size and two distinct hosts", f.ID, f.Size, f.Src, f.Dst))
	}
}

// HasDeadline reports whether the flow is deadline-constrained.
func (f Flow) HasDeadline() bool { return f.Deadline > 0 }

// AbsDeadline returns the absolute deadline (Start+Deadline), or sim.MaxTime
// for unconstrained flows.
func (f Flow) AbsDeadline() sim.Time {
	if !f.HasDeadline() {
		return sim.MaxTime
	}
	return f.Start + f.Deadline
}

// Result records the outcome of one flow, plus the per-flow telemetry
// counters the protocols report through the Collector (all zero unless
// the protocol emits them; see DESIGN.md §8).
type Result struct {
	Flow
	Finish     sim.Time // time the receiver got the last byte; <0 if never
	Terminated bool     // true if Early Termination gave up on the flow

	BytesAcked  int64 // acknowledged payload bytes (Size once finished)
	Retransmits int32 // data packets resent (fast retransmit + timeouts)
	Preemptions int32 // sending→paused transitions (PDQ-style preemption)
	ECNMarks    int32 // ECN-marked acknowledgments received (DCTCP's ECE echo)
	PrioPackets int32 // data packets sent with an explicit priority stamp (pFabric)
}

// Done reports whether the flow delivered all its bytes.
func (r Result) Done() bool { return r.Finish >= 0 && !r.Terminated }

// FCT returns the flow completion time, valid only if Done.
func (r Result) FCT() sim.Time { return r.Finish - r.Start }

// MetDeadline reports whether a deadline-constrained flow finished in time.
func (r Result) MetDeadline() bool {
	return r.Done() && r.Finish <= r.AbsDeadline()
}

// Paper §5.1 constants.
const (
	MinFlowSize      int64    = 2 << 10 // 2 KB, lower end of the query-traffic interval
	DeadlineFloor    sim.Time = 3 * sim.Millisecond
	MeanDeadlineDflt sim.Time = 20 * sim.Millisecond
)

// SizeDist draws flow sizes in bytes.
type SizeDist interface {
	Sample(rng *rand.Rand) int64
}

// Uniform draws sizes uniformly from [Lo, Hi].
type Uniform struct{ Lo, Hi int64 }

// Sample implements SizeDist.
func (u Uniform) Sample(rng *rand.Rand) int64 {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + rng.Int63n(u.Hi-u.Lo+1)
}

// UniformMean returns the paper's uniform size distribution with the given
// mean: [2 KB, 2·mean−2 KB], e.g. mean 100 KB gives [2 KB, 198 KB].
func UniformMean(mean int64) Uniform {
	hi := 2*mean - MinFlowSize
	if hi < MinFlowSize {
		hi = MinFlowSize
	}
	return Uniform{Lo: MinFlowSize, Hi: hi}
}

// Pareto draws sizes from a bounded Pareto-style heavy tail with the given
// tail index (the paper uses 1.1 in Fig. 10) scaled to the requested mean.
type Pareto struct {
	Alpha    float64
	MeanSize float64
}

// Sample implements SizeDist. Samples are clamped to [MinFlowSize, 1000×mean]
// to keep the (infinite-variance) tail simulable.
func (p Pareto) Sample(rng *rand.Rand) int64 {
	// For a Pareto with xm minimal value: mean = alpha*xm/(alpha-1).
	xm := p.MeanSize * (p.Alpha - 1) / p.Alpha
	x := xm / math.Pow(1-float64(rng.Float64()), 1/p.Alpha)
	if x > 1000*p.MeanSize {
		x = 1000 * p.MeanSize
	}
	if x < float64(MinFlowSize) {
		x = float64(MinFlowSize)
	}
	return int64(x)
}

// VL2SizeDist is the synthetic equivalent of the flow-size distribution
// measured by Greenberg et al. in a large commercial cloud data center
// ([12]; DESIGN.md §6): the vast majority of flows are mice of a few KB
// to ~100 KB, while a small fraction of elephants (1–100 MB) carries most
// of the bytes.
type VL2SizeDist struct{}

// Sample implements SizeDist.
func (VL2SizeDist) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	switch {
	case u < 0.50: // small mice: 2–10 KB
		return 2<<10 + rng.Int63n(8<<10)
	case u < 0.95: // larger mice: 10–100 KB
		return 10<<10 + rng.Int63n(90<<10)
	case u < 0.99: // medium: 100 KB–1 MB
		return 100<<10 + rng.Int63n((1<<20)-(100<<10))
	default: // elephants: 1–100 MB, log-uniform
		lg := float64(rng.Float64()) * 2 // 10^0..10^2 MB
		return int64(math.Pow(10, lg) * float64(1<<20))
	}
}

// ShortFlowCutoff is the size below which the paper treats VL2 flows as
// deadline-constrained query traffic (§5.3: "<40 KByte").
const ShortFlowCutoff int64 = 40 << 10

// EDU1SizeDist is the synthetic equivalent of the university data-center
// workload (EDU1 in Benson et al. [6]; DESIGN.md §6): overwhelmingly small
// flows with a modest heavy tail.
type EDU1SizeDist struct{}

// Sample implements SizeDist.
func (EDU1SizeDist) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	switch {
	case u < 0.70: // tiny: 0.5–4 KB
		return 512 + rng.Int63n((4<<10)-512)
	case u < 0.95: // small: 4–64 KB
		return 4<<10 + rng.Int63n(60<<10)
	default: // tail: 64 KB–10 MB, log-uniform
		lg := math.Log2(64<<10) + float64(rng.Float64()*(math.Log2(10*(1<<20))-math.Log2(64<<10)))
		return int64(math.Pow(2, lg))
	}
}

// WebSearchSizeDist is a synthetic equivalent of the web-search workload
// measured by Alizadeh et al. (DCTCP): partition/aggregate query traffic
// of a few KB to ~1 MB alongside large background transfers of 1–30 MB
// that carry most of the bytes. It is heavier-tailed than EDU1 but less
// extreme than VL2's 100 MB elephants.
type WebSearchSizeDist struct{}

// Sample implements SizeDist.
func (WebSearchSizeDist) Sample(rng *rand.Rand) int64 {
	u := rng.Float64()
	switch {
	case u < 0.30: // query responses: 2–10 KB
		return 2<<10 + rng.Int63n(8<<10)
	case u < 0.70: // mid-size updates: 10–100 KB
		return 10<<10 + rng.Int63n(90<<10)
	case u < 0.90: // short background: 100 KB–1 MB
		return 100<<10 + rng.Int63n((1<<20)-(100<<10))
	default: // large background: 1–30 MB, log-uniform
		lg := rng.Float64() * math.Log10(30) // 10^0..10^1.48 MB
		return int64(math.Pow(10, lg) * float64(1<<20))
	}
}

// ExpDeadline draws a deadline from an exponential distribution with the
// given mean, clamped below at the paper's 3 ms floor (§5.1).
func ExpDeadline(rng *rand.Rand, mean sim.Time) sim.Time {
	d := sim.Time(rng.ExpFloat64() * float64(mean))
	if d < DeadlineFloor {
		d = DeadlineFloor
	}
	return d
}
