// Package fluid implements the idealized fluid-model schedulers the PDQ
// paper compares against on a single bottleneck:
//
//   - SRPT (shortest remaining processing time), which minimizes mean flow
//     completion time — the paper's "Optimal" for deadline-unconstrained
//     query aggregation (§5.2.2);
//   - the omniscient deadline scheduler of §5.2.1: EDF order plus the
//     Moore–Hodgson algorithm (Pinedo, Algorithm 3.3.1) that discards the
//     minimum number of flows that cannot meet their deadlines;
//   - fluid processor sharing (fair sharing), the behavior TCP/RCP/DCTCP
//     approximate, used in the Fig. 1 motivating example;
//   - D3's greedy reservations in arrival order, Fig. 1's third scheduler.
//
// Sizes are in bytes, rates in bits per second, times in sim.Time; the
// fluid model has no packetization or feedback delay.
package fluid

import (
	"math"
	"sort"

	"pdq/internal/sim"
	"pdq/internal/workload"
)

// Completion maps flow ID → completion time. Flows absent from the map
// were discarded (deadline case) or never finished.
type Completion map[uint64]sim.Time

// transmission time of size bytes at bps.
func xmit(size int64, bps int64) sim.Time {
	return sim.Time(float64(size) * 8 / float64(bps) * float64(sim.Second))
}

// job is one flow of a fluid schedule: the service time it has left at
// the link's full rate, in ns, and its share of the link.
type job struct {
	f         workload.Flow
	rem, rate float64
}

// serve runs flows through one link of the given rate. At every arrival
// and completion, grant sets the shares of the active flows, given in
// arrival order (start time, then slice order); they sum to at most 1,
// with at least one above 0, and hold until the next arrival or
// completion. Flows may have distinct start times.
func serve(flows []workload.Flow, bps int64, grant func(now sim.Time, active []*job)) Completion {
	jobs := make([]*job, len(flows))
	for i, f := range flows {
		jobs[i] = &job{f: f, rem: float64(xmit(f.Size, bps))}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].f.Start < jobs[j].f.Start })
	out := Completion{}
	var active []*job
	for now, next := sim.Time(0), 0; next < len(jobs) || len(active) > 0; {
		if len(active) == 0 {
			now = max(now, jobs[next].f.Start) // idle until the next arrival
		}
		for ; next < len(jobs) && jobs[next].f.Start <= now; next++ {
			active = append(active, jobs[next])
		}
		grant(now, active)
		dt := math.Inf(1) // until the first completion or the next arrival
		if next < len(jobs) {
			dt = float64(jobs[next].f.Start - now)
		}
		for _, j := range active {
			if j.rate > 0 {
				dt = min(dt, j.rem/j.rate)
			}
		}
		now += sim.Time(dt)
		kept := active[:0]
		for _, j := range active {
			if j.rem <= 0 || j.rate > 0 && j.rem/j.rate <= dt {
				out[j.f.ID] = now
			} else {
				j.rem -= float64(j.rate * dt)
				kept = append(kept, j)
			}
		}
		active = kept
	}
	return out
}

// SRPT serves flows on one link of the given rate in
// shortest-remaining-processing-time order, preemptively (ties by flow
// ID); this minimizes mean flow completion time. Service times are whole
// nanoseconds and shares 0 or 1, so every step is exact.
func SRPT(flows []workload.Flow, bps int64) Completion {
	return serve(flows, bps, func(_ sim.Time, active []*job) {
		cur := active[0]
		for _, j := range active {
			j.rate = 0
			if j.rem < cur.rem || j.rem == cur.rem && j.f.ID < cur.f.ID {
				cur = j
			}
		}
		cur.rate = 1
	})
}

// FairShare serves flows on one link of the given rate by fluid processor
// sharing: each active flow receives rate/n.
func FairShare(flows []workload.Flow, bps int64) Completion {
	return serve(flows, bps, func(_ sim.Time, active []*job) {
		for _, j := range active {
			j.rate = 1 / float64(len(active))
		}
	})
}

// D3 serves flows on one link of the given rate as D3 reserves it
// (Wilson et al.), in the fluid limit: the active flows, in arrival
// order, are granted remaining/(deadline − now) of the link, or what is
// left of it, and what no request takes is shared equally among them. A
// flow without a deadline, or past it, requests nothing.
func D3(flows []workload.Flow, bps int64) Completion {
	return serve(flows, bps, func(now sim.Time, active []*job) {
		left := 1.0
		for _, j := range active {
			j.rate = 0
			if dl := j.f.Start + j.f.Deadline; j.f.Deadline > 0 && dl > now { // Flow.AbsDeadline
				j.rate = min(j.rem/float64(dl-now), left)
				left -= j.rate
			}
		}
		for _, j := range active {
			j.rate += left / float64(len(active))
		}
	})
}

// MooreHodgson schedules flows that all arrive at time 0 on one link in
// EDF order, discarding the minimum number of flows that cannot meet
// their deadlines (single-machine 1||ΣUj, optimal). It returns the
// completion times of the scheduled (on-time) flows and the IDs of the
// discarded ones; the discarded flows are appended after the on-time set,
// completing late.
func MooreHodgson(flows []workload.Flow, bps int64) (Completion, []uint64) {
	type job struct {
		f workload.Flow
		p sim.Time // processing time
	}
	jobs := make([]job, len(flows))
	for i, f := range flows {
		if !f.HasDeadline() {
			panic("fluid: MooreHodgson requires deadlines on all flows")
		}
		jobs[i] = job{f: f, p: xmit(f.Size, bps)}
	}
	sort.SliceStable(jobs, func(i, j int) bool {
		if jobs[i].f.Deadline != jobs[j].f.Deadline {
			return jobs[i].f.Deadline < jobs[j].f.Deadline
		}
		return jobs[i].f.ID < jobs[j].f.ID
	})
	var selected []job
	var total sim.Time
	var tardy []uint64
	for _, j := range jobs {
		selected = append(selected, j)
		total += j.p
		if total > j.f.Deadline {
			// Remove the longest job among the selected.
			longest := 0
			for i := 1; i < len(selected); i++ {
				if selected[i].p > selected[longest].p {
					longest = i
				}
			}
			total -= selected[longest].p
			tardy = append(tardy, selected[longest].f.ID)
			selected = append(selected[:longest], selected[longest+1:]...)
		}
	}
	out := Completion{}
	var t sim.Time
	for _, j := range selected {
		t += j.p
		out[j.f.ID] = t
	}
	for _, id := range tardy {
		for _, j := range jobs {
			if j.f.ID == id {
				t += j.p
				out[id] = t
			}
		}
	}
	return out, tardy
}

// OptimalAppThroughput returns the best achievable percentage of deadline
// flows finishing on time for flows sharing one bottleneck, all starting
// at time 0 (the paper's omniscient scheduler, §5.2.1).
func OptimalAppThroughput(flows []workload.Flow, bps int64) float64 {
	if len(flows) == 0 {
		return 100
	}
	comp, _ := MooreHodgson(flows, bps)
	met := 0
	for _, f := range flows {
		if c, ok := comp[f.ID]; ok && c <= f.Deadline {
			met++
		}
	}
	return 100 * float64(met) / float64(len(flows))
}

// MeanFCT returns the mean completion time, in seconds, over the flows
// present in c.
func MeanFCT(flows []workload.Flow, c Completion) float64 {
	var sum float64
	n := 0
	for _, f := range flows {
		if t, ok := c[f.ID]; ok {
			sum += (t - f.Start).Seconds()
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}
