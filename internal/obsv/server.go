package obsv

import (
	"encoding/json"
	"net/http"
	"net/http/pprof"
)

// Handler builds the -http endpoint mux:
//
//	/metrics        Prometheus text exposition of the fixed metric families
//	/runs           JSON array of sweep-run progress snapshots
//	/metrics.json   full JSON snapshot (same document as -metrics-out)
//	/debug/pprof/*  net/http/pprof profiles
//
// The handlers only read the guarded records and gauges, so serving
// concurrently with a live run is safe; cmd/pdqsim owns the listener
// lifecycle.
func Handler(o *Observer) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := o.WriteProm(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/runs", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		runs := o.Runs()
		if runs == nil {
			runs = []SweepSnapshot{}
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(runs); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		if err := o.WriteJSON(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
