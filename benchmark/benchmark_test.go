package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestQuartilesMatchPython pins the spread statistic to Python's
// statistics.quantiles(xs, n=4), which the acceptance rule is stated in.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spread([]float64{4, 4, 4, 4}); got != 0 {
		t.Errorf("spread of equal samples = %v, want 0", got)
	}
}

// TestSmoke runs every workload once at its -quick form, end to end and
// traced, and holds the result to BENCHMARK.json: every workload and
// metric named there appears in the output and nothing else does, names
// are well-formed, units and directions are present, and no output check
// failed — which covers traced = untraced results and the traced cell's
// self times summing to its root span within 2 %.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds pdqsim and runs all six workloads")
	}
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	m, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	overrides := map[string]float64{}
	for _, d := range m.EndToEnd {
		overrides[d.Name] = d.Bound // bounds are calibrated, everything else is generated
	}
	onDisk, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, buildManifest(overrides).encode()) {
		t.Error("BENCHMARK.json differs from what -manifest generates; regenerate it")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u, better string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("metric name %q is malformed or used twice", n)
		}
		seen[n] = true
		if !unit.MatchString(u) || (better != "lower" && better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", n, u, better)
		}
	}
	for _, d := range m.EndToEnd {
		check(d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range m.PerLayer {
		check(d.Name, d.Unit, d.Better)
	}

	h := &harness{root: root, bin: filepath.Join(t.TempDir(), "pdqsim"), tmp: t.TempDir(),
		seed: 1, seconds: 1, smoke: true}
	if err := buildPdqsim(root, h.bin); err != nil {
		t.Fatal(err)
	}
	e2e, traced := h.endToEnd(workloads), h.traced(workloads)
	if len(m.Workloads) != len(e2e) || len(m.Workloads) != len(traced) {
		t.Errorf("BENCHMARK.json names %d workloads, the runs produced %d and %d", len(m.Workloads), len(e2e), len(traced))
	}
	for _, w := range m.Workloads {
		if !name.MatchString(w.Name) || len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %q: malformed name or why of %d characters", w.Name, len(w.Why))
		}
		for mode, r := range map[string]*workloadResult{"end-to-end": e2e[w.Name], "traced": traced[w.Name]} {
			if r == nil {
				t.Errorf("workload %s missing from the %s run", w.Name, mode)
				continue
			}
			if r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s %s: %d of %d checks failed: %v", w.Name, mode, r.Failed, r.Attempted, r.Failures)
			}
		}
		if r := e2e[w.Name]; r != nil {
			if len(r.EndToEnd) != len(m.EndToEnd) {
				t.Errorf("%s reports %d end-to-end metrics, BENCHMARK.json names %d", w.Name, len(r.EndToEnd), len(m.EndToEnd))
			}
			for _, d := range m.EndToEnd {
				if s, ok := r.EndToEnd[d.Name]; !ok || s.Unit != d.Unit {
					t.Errorf("%s: end-to-end metric %s missing or in unit %q, want %q", w.Name, d.Name, s.Unit, d.Unit)
				}
			}
		}
		if r := traced[w.Name]; r != nil {
			if len(r.PerLayer) != len(m.PerLayer) {
				t.Errorf("%s reports %d per-layer metrics, BENCHMARK.json names %d", w.Name, len(r.PerLayer), len(m.PerLayer))
			}
			for _, d := range m.PerLayer {
				if s, ok := r.PerLayer[d.Name]; !ok || s.Unit != d.Unit {
					t.Errorf("%s: per-layer metric %s missing or in unit %q, want %q", w.Name, d.Name, s.Unit, d.Unit)
				}
			}
		}
	}
}
