package obsv

// Runtime is the process-wide engine aggregate: the sum of the
// EngineStats of every finished Cell record in every run the Observer
// registered, with the highest queue mark. It keeps no state of its own,
// so a live scrape reads the cells finished so far.
type Runtime struct{ o *Observer }

// RuntimeSnapshot is Runtime's point-in-time sum for export.
type RuntimeSnapshot struct {
	Scheduled uint64 `json:"events_scheduled"`
	Fired     uint64 `json:"events_fired"`
	Cancelled uint64 `json:"events_cancelled"`
	Refilled  uint64 `json:"events_refilled"`
	QueueHWM  int64  `json:"queue_highwater"`
}

// Snapshot sums the finished records.
func (r *Runtime) Snapshot() RuntimeSnapshot {
	if r == nil {
		return RuntimeSnapshot{}
	}
	var sum EngineStats
	for _, run := range r.o.sweeps() {
		cells := run.records()
		for i := range cells {
			sum.Add(&cells[i].Engine)
		}
	}
	return RuntimeSnapshot{sum.Scheduled.v, sum.Fired.v, sum.Cancelled.v, sum.Refilled.v, sum.QueueHWM.v}
}
