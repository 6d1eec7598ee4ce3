package scenario_test

import (
	"fmt"
	"slices"
	"testing"

	"pdq/internal/exp"
	"pdq/internal/scenario"
	"pdq/internal/stats"
)

// searchFigures are the figures read off a binary search: every spec in
// internal/exp with a max-flows or max-rate eval block.
var searchFigures = []string{"fig3c", "fig4a", "fig5a", "fig8a", "fig9a", "fig11c"}

// TestSearchFiguresListed keeps searchFigures honest against the registry.
func TestSearchFiguresListed(t *testing.T) {
	var have []string
	for name, sf := range exp.Specs {
		if m := sf().Eval.Mode; m == "max-flows" || m == "max-rate" {
			have = append(have, name)
		}
	}
	slices.Sort(have)
	want := slices.Clone(searchFigures)
	slices.Sort(want)
	if !slices.Equal(have, want) {
		t.Fatalf("search specs in internal/exp: %v, this test covers %v", have, want)
	}
}

// TestProbeVerdictMatchesFullRun is the stop rule's differential test. For
// every simulated cell of every search figure at -quick, and every probe
// the search visits plus both neighbours of each, the probe as the search
// runs it — stopped at its verdict — gives the verdict of the same probe
// run to the horizon. On the horizon side the metric interval is recorded
// at every flow outcome: the intervals nest and all hold the final metric,
// which is what makes stopping sound. A stopped packet-level probe fired a
// prefix of the full run's events and left the clock inside the horizon.
//
// With -short (CI's whole-tree race run, where this single-goroutine replay
// costs ten times as much and shows the detector nothing) it covers every
// fourth cell and the visited probes without their neighbours.
func TestProbeVerdictMatchesFullRun(t *testing.T) {
	for _, fig := range searchFigures {
		t.Run(fig, func(t *testing.T) {
			t.Parallel()
			cells, err := scenario.SearchCells(exp.Specs[fig](), scenario.Opts{Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) == 0 {
				t.Fatal("no simulated search cells")
			}
			stopped, probes := 0, 0
			for i, c := range cells {
				if testing.Short() && i%4 != 0 {
					continue
				}
				s, p := checkCell(t, c)
				stopped += s
				probes += p
			}
			// The rule must actually fire, or this test compares full runs
			// with full runs.
			if stopped*2 < probes {
				t.Errorf("only %d of %d probes stopped at their verdict", stopped, probes)
			}
		})
	}
}

func checkCell(t *testing.T, c scenario.SearchCell) (stopped, probes int) {
	t.Helper()
	id := fmt.Sprintf("%s/%s", c.Row, c.Col)
	ran := map[int]scenario.ProbeRun{}
	var visited []int
	best := stats.MaxN(1, c.Hi, func(n int) bool {
		visited = append(visited, n)
		ran[n] = c.Probe(n)
		return ran[n].OK
	})
	// SearchCell mirrors compute's cell resolution; this pins the mirror.
	if got, want := float64(best)*c.Scale, c.Compute(); got != want {
		t.Fatalf("%s: searching over SearchCell.Probe gives %v, the sweep's compute %v", id, got, want)
	}
	sizes := slices.Clone(visited)
	for _, n := range visited {
		if testing.Short() {
			break
		}
		for _, m := range []int{n - 1, n + 1} {
			if m >= 1 && m <= c.Hi && !slices.Contains(sizes, m) {
				sizes = append(sizes, m)
			}
		}
	}
	for i, n := range sizes {
		stop, ok := ran[n]
		if !ok {
			stop = c.Probe(n)
		}
		ref := c.Reference(n, true)
		at := fmt.Sprintf("%s probe %d", id, n)
		if stop.OK != ref.OK {
			t.Errorf("%s: verdict %v when stopped (metric %v), %v at the horizon (metric %v)", at, stop.OK, stop.Metric, ref.OK, ref.Metric)
		}
		lo, hi := 0.0, 100.0
		for k, iv := range ref.Intervals {
			if iv[0] < lo || iv[1] > hi || iv[0] > iv[1] {
				t.Errorf("%s: outcome %d has interval [%v, %v] after [%v, %v]: not nested", at, k, iv[0], iv[1], lo, hi)
			}
			if ref.Metric < iv[0] || ref.Metric > iv[1] {
				t.Errorf("%s: outcome %d has interval [%v, %v], final metric %v outside it", at, k, iv[0], iv[1], ref.Metric)
			}
			lo, hi = iv[0], iv[1]
		}
		if len(ref.Intervals) == 0 {
			t.Errorf("%s: the run to the horizon saw no flow outcome", at)
		}
		if c.Packet {
			if stop.Now > c.Horizon {
				t.Errorf("%s: stopped probe left the clock at %v, horizon %v", at, stop.Now, c.Horizon)
			}
			if stop.Events > ref.Events || (stop.Stopped && stop.Events == 0) {
				t.Errorf("%s: stopped probe fired %d events, the full run %d", at, stop.Events, ref.Events)
			}
		}
		if i == 0 {
			// Taking notes changes nothing: the watched run is the run a
			// nil Decided gives, event for event.
			if bare := c.Reference(n, false); bare.Metric != ref.Metric || bare.Events != ref.Events || bare.Now != ref.Now {
				t.Errorf("%s: watched run %+v differs from the unwatched %+v", at, ref, bare)
			}
		}
		probes++
		if stop.Stopped {
			stopped++
		}
	}
	return stopped, probes
}
