package obsv

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteProm writes the observer's fixed metric families in the Prometheus
// text exposition format: the engine families from one Runtime snapshot,
// the sweep families with one sample per run in start order, the per-run
// cell-time histograms and the uptime. It reads only finished records and
// gauges, so it is safe against live simulation.
func (o *Observer) WriteProm(w io.Writer) error {
	if o == nil {
		return nil
	}
	var b strings.Builder
	family := func(name, typ, help string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
	rt := o.Runtime.Snapshot()
	for _, f := range []struct {
		name, typ, help string
		v               float64
	}{
		{"pdq_engine_events_scheduled_total", "counter", "Events scheduled across all engines.", float64(rt.Scheduled)},
		{"pdq_engine_events_fired_total", "counter", "Events fired across all engines.", float64(rt.Fired)},
		{"pdq_engine_events_cancelled_total", "counter", "Events cancelled before firing.", float64(rt.Cancelled)},
		{"pdq_engine_events_refilled_total", "counter", "Schedules that replaced the firing event at the heap root instead of paying a pop and a push.", float64(rt.Refilled)},
		{"pdq_engine_queue_highwater", "gauge", "High-water mark of pending events in any engine: about busy links plus armed timers.", float64(rt.QueueHWM)},
	} {
		family(f.name, f.typ, f.help)
		sample(&b, f.name, "", f.v)
	}

	runs := o.sweeps()
	snaps := make([]SweepSnapshot, len(runs))
	for i, r := range runs {
		snaps[i] = r.Snapshot()
	}
	for _, f := range []struct {
		name, typ, help string
		v               func(SweepSnapshot) float64
	}{
		{"pdq_sweep_cells_total", "counter", "Cells announced for the sweep.", func(s SweepSnapshot) float64 { return float64(s.Total) }},
		{"pdq_sweep_cells_done_total", "counter", "Cells finished successfully (includes cached).", func(s SweepSnapshot) float64 { return float64(s.Done) }},
		{"pdq_sweep_cells_failed_total", "counter", "Cells finished with an error or panic.", func(s SweepSnapshot) float64 { return float64(s.Failed) }},
		{"pdq_sweep_cells_cached_total", "counter", "Cells served from the result cache.", func(s SweepSnapshot) float64 { return float64(s.Cached) }},
		{"pdq_sweep_probes_total", "counter", "Search-probe simulations run (max-flows/max-rate cells).", func(s SweepSnapshot) float64 { return float64(s.Probes) }},
		{"pdq_sweep_probes_decided_total", "counter", "Search probes stopped at their verdict, short of the horizon.", func(s SweepSnapshot) float64 { return float64(s.Decided) }},
		{"pdq_sweep_cells_running", "gauge", "Cells currently executing.", func(s SweepSnapshot) float64 { return float64(s.Running) }},
	} {
		family(f.name, f.typ, f.help)
		for _, s := range snaps {
			sample(&b, f.name, runLabel(s.Name, ""), f.v(s))
		}
	}

	const hist = "pdq_sweep_cell_seconds"
	family(hist, "histogram", "Per-cell wall time.")
	for _, r := range runs {
		r.CellSeconds(func(h *Histogram) {
			for i, ub := range h.Bounds() {
				sample(&b, hist+"_bucket", runLabel(r.Name, formatFloat(ub)), float64(h.Cumulative(i)))
			}
			sample(&b, hist+"_bucket", runLabel(r.Name, "+Inf"), float64(h.Count()))
			sample(&b, hist+"_sum", runLabel(r.Name, ""), h.Sum())
			sample(&b, hist+"_count", runLabel(r.Name, ""), float64(h.Count()))
		})
	}

	family("pdq_uptime_seconds", "gauge", "Wall seconds since the observer was created.")
	sample(&b, "pdq_uptime_seconds", "", o.UptimeSeconds())
	_, err := io.WriteString(w, b.String())
	return err
}

// sample writes one exposition sample line: name{labels} value.
func sample(b *strings.Builder, name, labels string, v float64) {
	fmt.Fprintf(b, "%s%s %s\n", name, labels, formatFloat(v))
}

// runLabel renders the label set of a per-run sample, with the histogram
// bucket bound le when it is set.
func runLabel(run, le string) string {
	l := `{run="` + escapeLabel(run) + `"`
	if le != "" {
		l += `,le="` + le + `"`
	}
	return l + "}"
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatFloat renders a sample value: integral values without an
// exponent or trailing zeros, everything else in Go's shortest form.
func formatFloat(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
