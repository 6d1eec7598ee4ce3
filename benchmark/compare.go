package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

func readResults(path string) (resultFile, error) {
	var f resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("parsing %s: %w", path, err)
	}
	return f, nil
}

// exactCounts are simulated statistics and model-level counters that two
// runs of one seed must agree on unless the model itself changed.
var exactCounts = []string{"cell.events_fired", "cell.pkt_hops", "cell.data_pkts", "sweep.cells"}

// compareFiles prints one row per (workload, end-to-end metric) with a
// verdict against the bound in BENCHMARK.json:
//
//	unresolved    either side's own spread (quartile distance ÷ median) is wider than the bound
//	worse         B's median is worse than A's by more than the bound
//	better        B's median is better than A's by more than the bound
//	within-bound  anything else
//
// A changed table digest is reported as results_changed and is not a
// failure: model fixes must stay landable, and a pure speed-up can be
// checked to leave every digest alone. The exit status is non-zero on
// any worse row or a higher failed share.
func compareFiles(root, pathA, pathB string) int {
	m, err := readManifest(root)
	if err != nil {
		return fail(err)
	}
	a, err := readResults(pathA)
	if err != nil {
		return fail(err)
	}
	b, err := readResults(pathB)
	if err != nil {
		return fail(err)
	}
	if a.Env.NoisyHost || b.Env.NoisyHost {
		fmt.Println("# a noisy host was flagged during at least one of the runs")
	}
	names := make([]string, 0, len(a.Workloads))
	for n := range a.Workloads {
		if b.Workloads[n] != nil {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	bad := 0
	fmt.Printf("%-20s %-12s %12s %12s %8s %7s %6s  %s\n", "workload", "metric", "A", "B", "change", "spread", "bound", "verdict")
	for _, n := range names {
		ra, rb := a.Workloads[n], b.Workloads[n]
		for _, d := range m.EndToEnd {
			sa, okA := ra.EndToEnd[d.Name]
			sb, okB := rb.EndToEnd[d.Name]
			if !okA || !okB || sa.Value == 0 {
				continue
			}
			worse := (sb.Value - sa.Value) / math.Abs(sa.Value)
			if d.Better == "higher" {
				worse = -worse
			}
			sp := math.Max(spread(sa.Samples), spread(sb.Samples))
			verdict := "within-bound"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "worse"
				bad++
			case worse < -d.Bound:
				verdict = "better"
			}
			fmt.Printf("%-20s %-12s %12.6g %12.6g %+7.1f%% %6.1f%% %5.1f%%  %s\n",
				n, d.Name, sa.Value, sb.Value, 100*(sb.Value-sa.Value)/math.Abs(sa.Value), 100*sp, 100*d.Bound, verdict)
		}
		if ra.TableDigest != "" && rb.TableDigest != "" && ra.TableDigest != rb.TableDigest {
			fmt.Printf("%-20s results_changed: table digest %.12s -> %.12s\n", n, ra.TableDigest, rb.TableDigest)
		}
		for _, c := range exactCounts {
			ca, okA := ra.PerLayer[c]
			cb, okB := rb.PerLayer[c]
			if okA && okB && ca.Value != cb.Value {
				fmt.Printf("%-20s counts_changed: %s %.0f -> %.0f\n", n, c, ca.Value, cb.Value)
			}
		}
		if share(rb) > share(ra) {
			fmt.Printf("%-20s failed share rose: %d/%d -> %d/%d\n", n, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			bad++
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func share(r *workloadResult) float64 {
	if r.Attempted == 0 {
		return 0
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// calibrate runs the end-to-end suite n times on one commit, seeds 1..n,
// and writes into BENCHMARK.json, per metric, the larger of its floor and
// three times the widest spread any workload showed — the acceptance
// rule wants every spread under a third of its bound. A gate that knows
// its own noise floor (ROADMAP 1a).
func (h *harness) calibrate(n int) int {
	h.seconds = runSeconds
	medians := map[string]map[string][]float64{} // metric → workload → per-run medians
	for i := 1; i <= n; i++ {
		h.seed = int64(i)
		for name, r := range h.endToEnd(workloads) {
			if r.Failed > 0 {
				return fail(fmt.Errorf("calibration run %d: %s failed %d checks: %v", i, name, r.Failed, r.Failures))
			}
			for metric, s := range r.EndToEnd {
				if medians[metric] == nil {
					medians[metric] = map[string][]float64{}
				}
				medians[metric][name] = append(medians[metric][name], s.Value)
			}
		}
		fmt.Fprintf(os.Stderr, "benchmark: calibration run %d of %d done\n", i, n)
	}
	bounds := map[string]float64{}
	fmt.Printf("%-12s %-20s %8s\n", "metric", "workload", "spread")
	for _, d := range endToEnd {
		widest := 0.0
		for _, w := range workloads {
			sp := spread(medians[d.Name][w.name])
			widest = math.Max(widest, sp)
			fmt.Printf("%-12s %-20s %7.2f%%\n", d.Name, w.name, 100*sp)
		}
		bound := math.Max(boundFloor[d.Name], math.Ceil(300*widest)/100)
		if bound > 0.25 {
			fmt.Printf("# %s: three times the calibrated spread is %.0f%%, over the 25%% cap; the workload is too noisy to gate\n", d.Name, 100*bound)
			bound = 0.25
		}
		if bound > boundFloor[d.Name] {
			fmt.Printf("# %s: calibrated spread %.2f%% lifts the bound over its %.1f%% floor to %.0f%%\n",
				d.Name, 100*widest, 100*boundFloor[d.Name], 100*bound)
		}
		bounds[d.Name] = bound
	}
	path := filepath.Join(h.root, "BENCHMARK.json")
	if err := os.WriteFile(path, buildManifest(bounds).encode(), 0o644); err != nil {
		return fail(err)
	}
	fmt.Println("# wrote", path)
	return 0
}
