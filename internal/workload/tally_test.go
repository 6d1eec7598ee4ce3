package workload

import (
	"math/rand"
	"testing"

	"pdq/internal/sim"
)

const ms = sim.Millisecond

// dl is a deadline flow starting at 0; a zero deadline makes it
// unconstrained.
func dl(id uint64, deadline sim.Time) Flow {
	return Flow{ID: id, Src: 0, Dst: 1, Size: 1000, Deadline: deadline}
}

// watched registers flows on a fresh collector and arms the tally; seen
// accumulates what the watcher is handed.
func watched(flows ...Flow) (c *Collector, seen *[]Tally) {
	c = NewCollector()
	for _, f := range flows {
		c.Register(f)
	}
	seen = new([]Tally)
	c.Watch(func(t Tally) { *seen = append(*seen, t) })
	return c, seen
}

// checkTally requires the tally to be want and to agree with what the
// results, read now, say was met.
func checkTally(t *testing.T, c *Collector, want Tally) {
	t.Helper()
	if got := c.Tally(); got != want {
		t.Fatalf("tally %+v, want %+v", got, want)
	}
	met := 0
	for _, r := range c.Results() {
		if r.HasDeadline() && r.MetDeadline() {
			met++
		}
	}
	if met != want.Met {
		t.Fatalf("tally counts %d met, the results %d", want.Met, met)
	}
}

func TestTallyMetAndLost(t *testing.T) {
	c, seen := watched(dl(1, 5*ms), dl(2, 10*ms), dl(3, 20*ms), dl(4, 0))
	checkTally(t, c, Tally{Total: 3})
	c.Finish(1, 4*ms)
	checkTally(t, c, Tally{Met: 1, Total: 3})
	c.Finish(4, 10*ms) // an outcome at flow 2's deadline itself: not yet past it
	checkTally(t, c, Tally{Met: 1, Total: 3})
	c.Finish(2, 12*ms) // late
	checkTally(t, c, Tally{Met: 1, Lost: 1, Total: 3})
	c.Finish(3, 20*ms) // on the deadline is in time
	checkTally(t, c, Tally{Met: 2, Lost: 1, Total: 3})
	if len(*seen) != 4 || (*seen)[3] != c.Tally() {
		t.Fatalf("watcher saw %+v, want one tally per outcome ending at %+v", *seen, c.Tally())
	}
}

// A Terminate and a Finish at one instant resolve as merged() resolves
// them — the finish wins — in either call order, so a terminated flow is
// not lost while a same-instant Finish can still arrive.
func TestTallySameInstantFinishWins(t *testing.T) {
	for _, termFirst := range []bool{true, false} {
		c, _ := watched(dl(1, 10*ms), dl(2, 10*ms))
		if termFirst {
			c.Of(1).Terminate(3 * ms)
			checkTally(t, c, Tally{Total: 2}) // terminated, and not lost
			c.Finish(1, 3*ms)
		} else {
			c.Finish(1, 3*ms)
			c.Of(1).Terminate(3 * ms)
		}
		checkTally(t, c, Tally{Met: 1, Total: 2})
		if r := c.Get(1); r.Terminated || !r.MetDeadline() {
			t.Fatalf("termFirst=%v: merged result %+v, want finished in time", termFirst, r)
		}
	}
}

// A flow that gave up and was then delivered in time anyway stays
// terminated: not met at the Finish, lost once its deadline is behind.
func TestTallyTerminatedThenFinishedIsLost(t *testing.T) {
	c, _ := watched(dl(1, 10*ms), dl(2, 50*ms))
	c.Of(1).Terminate(2 * ms)
	c.Finish(1, 5*ms)
	checkTally(t, c, Tally{Total: 2})
	c.Finish(2, 11*ms)
	checkTally(t, c, Tally{Met: 1, Lost: 1, Total: 2})
}

// M-PDQ's subflows each report the flow's finish; the first counts.
func TestTallyRepeatedFinishCountsOnce(t *testing.T) {
	c, seen := watched(dl(1, 10*ms))
	c.Finish(1, 3*ms)
	c.Finish(1, 4*ms)
	c.Finish(1, 30*ms)
	checkTally(t, c, Tally{Met: 1, Total: 1})
	if len(*seen) != 1 {
		t.Fatalf("watcher called %d times for one flow's finish", len(*seen))
	}
}

// Without deadline flows the tally is complete before the first event.
func TestTallyNoDeadlineFlows(t *testing.T) {
	c, _ := watched(dl(1, 0), dl(2, 0))
	checkTally(t, c, Tally{})
	c.Finish(1, ms)
	checkTally(t, c, Tally{})
}

// A deadline no outcome ever passes — beyond the horizon — is neither met
// nor lost: the tally leaves it open for the full run's results to settle.
func TestTallyDeadlineBeyondLastOutcome(t *testing.T) {
	c, _ := watched(dl(1, 10*ms), dl(2, 900*ms))
	c.Finish(1, 5*ms)
	checkTally(t, c, Tally{Met: 1, Total: 2})
}

func TestTallyOffUnlessWatched(t *testing.T) {
	c := NewCollector()
	c.Register(dl(1, 10*ms))
	c.Finish(1, 5*ms)
	if got := c.Tally(); got != (Tally{}) {
		t.Fatalf("unwatched collector keeps a tally: %+v", got)
	}
}

func TestRegisterAfterWatchPanics(t *testing.T) {
	c, _ := watched(dl(1, 10*ms))
	defer func() {
		if recover() == nil {
			t.Fatal("Register after Watch did not panic")
		}
	}()
	c.Register(dl(2, 10*ms))
}

// Random outcome streams in non-decreasing time: after every call the
// tally's met count is the results' own, the interval [Met, Total-Lost]
// has only narrowed, and it holds the final count.
func TestTallyBracketsFinalCount(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var flows []Flow
		for id := uint64(1); id <= 30; id++ {
			f := dl(id, sim.Time(rng.Intn(40))*ms) // Intn gives some 0: unconstrained
			f.Start = sim.Time(rng.Intn(10)) * ms
			flows = append(flows, f)
		}
		c, seen := watched(flows...)
		now := sim.Time(0)
		for i := 0; i < 80; i++ {
			now += sim.Time(rng.Intn(3)) * ms // 0: several outcomes at one instant
			id := uint64(1 + rng.Intn(len(flows)))
			if rng.Intn(4) == 0 {
				c.Of(id).Terminate(now)
			} else {
				c.Finish(id, now)
			}
			checkTally(t, c, c.Tally())
		}
		final := c.Tally().Met
		prev := Tally{Total: c.Tally().Total}
		for _, ty := range *seen {
			if ty.Met < prev.Met || ty.Lost < prev.Lost || ty.Total != prev.Total {
				t.Fatalf("seed %d: tally went from %+v to %+v", seed, prev, ty)
			}
			if final < ty.Met || final > ty.Total-ty.Lost {
				t.Fatalf("seed %d: final met count %d outside [%d, %d]", seed, final, ty.Met, ty.Total-ty.Lost)
			}
			prev = ty
		}
	}
}
