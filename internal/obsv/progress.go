package obsv

import (
	"fmt"
	"io"
	"strings"
)

// Progress renders the -progress live line: a single stderr line,
// rewritten in place with \r, showing cells done/total, failures,
// cache hits, throughput and ETA across every active run. The renderer
// is pure over SweepSnapshot values plus a Clock, so the golden test
// drives it with a fake clock and a bytes.Buffer.
type Progress struct {
	W        io.Writer
	Observer *Observer

	lastLen   int
	everDrawn bool
}

// Tick re-renders the progress line. Call it from a coarse ticker, which
// paces the rewrites and moves the ETA.
func (p *Progress) Tick() {
	if p == nil || p.Observer == nil {
		return
	}
	p.render()
}

// Done renders a final state and terminates the line with a newline so
// subsequent stderr output starts clean.
func (p *Progress) Done() {
	if p == nil || p.Observer == nil {
		return
	}
	p.render()
	if p.everDrawn {
		fmt.Fprintln(p.W)
	}
}

func (p *Progress) render() {
	line := RenderProgressLine(p.Observer.Runs())
	if line == "" {
		return
	}
	// Pad with spaces to fully overwrite a longer previous line.
	pad := p.lastLen - len(line)
	p.lastLen = len(line)
	if pad > 0 {
		line += strings.Repeat(" ", pad)
	}
	fmt.Fprintf(p.W, "\r%s", line)
	p.everDrawn = true
}

// RenderProgressLine formats the progress summary for a set of run
// snapshots, without the carriage-return framing. Runs that announced
// no cells are skipped; multiple active runs are joined with " | ".
func RenderProgressLine(runs []SweepSnapshot) string {
	var parts []string
	for _, r := range runs {
		if r.Total == 0 && r.Done == 0 && r.Failed == 0 {
			continue
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s: %d/%d cells", r.Name, r.Done+r.Failed, r.Total)
		if r.Failed > 0 {
			fmt.Fprintf(&b, ", %d failed", r.Failed)
		}
		if r.Cached > 0 {
			fmt.Fprintf(&b, ", %d cached", r.Cached)
		}
		if r.CellsPerSec > 0 {
			fmt.Fprintf(&b, ", %.1f cells/s", r.CellsPerSec)
		}
		switch {
		case r.Finished:
			fmt.Fprintf(&b, ", done in %s", fmtDuration(r.ElapsedMs))
		case r.EtaMs >= 0:
			fmt.Fprintf(&b, ", ETA %s", fmtDuration(r.EtaMs))
		}
		parts = append(parts, b.String())
	}
	return strings.Join(parts, " | ")
}

// fmtDuration renders milliseconds as a compact human duration.
func fmtDuration(ms int64) string {
	switch {
	case ms < 1000:
		return fmt.Sprintf("%dms", ms)
	case ms < 60_000:
		return fmt.Sprintf("%.1fs", float64(ms)/1000)
	case ms < 3_600_000:
		return fmt.Sprintf("%dm%02ds", ms/60_000, ms%60_000/1000)
	default:
		return fmt.Sprintf("%dh%02dm", ms/3_600_000, ms%3_600_000/60_000)
	}
}
