package obsv

import (
	"encoding/json"
	"io"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
)

// Endpoint is what Route resolves a path to, free of any transport: the
// body's content type and the function that writes the body.
type Endpoint struct {
	ContentType string
	Write       func(w io.Writer) error
}

// The content types the endpoints answer with.
const (
	ContentText   = "text/plain; charset=utf-8"
	ContentBinary = "application/octet-stream"
	contentProm   = "text/plain; version=0.0.4; charset=utf-8"
	contentJSON   = "application/json"
)

// ProfilePath is the prefix under which Route serves the runtime/pprof
// profiles by name.
const ProfilePath = "/debug/pprof/"

// Route maps an -http request path and its query parameters to the
// endpoint that serves it; ok is false for a path it does not serve:
//
//	/metrics            Prometheus text exposition of the fixed metric families
//	/runs               JSON array of sweep-run progress snapshots
//	/metrics.json       full JSON snapshot (same document as -metrics-out)
//	/debug/pprof/NAME   the runtime/pprof profile NAME (heap, allocs,
//	                    goroutine, ...): gzipped protobuf, or text at
//	                    ?debug=N for N ≠ 0; heap collects first at ?gc=1
//
// The writers only read the guarded records and gauges, so serving
// concurrently with a live run is safe. cmd/pdqsim owns the listener, the
// HTTP framing and the endpoints that read the wall clock (DESIGN.md §13).
func (o *Observer) Route(path string, query map[string]string) (e Endpoint, ok bool) {
	switch path {
	case "/metrics":
		return Endpoint{contentProm, o.WriteProm}, true
	case "/runs":
		return Endpoint{contentJSON, o.writeRuns}, true
	case "/metrics.json":
		return Endpoint{contentJSON, o.WriteJSON}, true
	}
	name, ok := strings.CutPrefix(path, ProfilePath)
	if !ok {
		return Endpoint{}, false
	}
	p := pprof.Lookup(name)
	if p == nil {
		return Endpoint{}, false
	}
	debug, _ := strconv.Atoi(query["debug"])
	gc, _ := strconv.Atoi(query["gc"])
	e = Endpoint{ContentBinary, func(w io.Writer) error {
		if name == "heap" && gc > 0 {
			runtime.GC()
		}
		return p.WriteTo(w, debug)
	}}
	if debug != 0 {
		e.ContentType = ContentText
	}
	return e, true
}

// writeRuns writes the /runs document: every run's snapshot, an empty
// array before the first.
func (o *Observer) writeRuns(w io.Writer) error {
	runs := o.Runs()
	if runs == nil {
		runs = []SweepSnapshot{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(runs)
}
