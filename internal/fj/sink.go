package fj

import "repro/internal/core"

// DetectorSink adapts the online race detector (internal/core, Figures 6
// and 8) to the event stream: the thread-compressed delayed traversal of
// Section 5 is fed to the Walker, and memory operations pose the
// supremum queries.
//
//	fork(x, y)  → arc (x, y)            (no Walk action; registers y)
//	begin(y)    → loop (y, y)
//	read/write  → loop (t, t) + queries (On-Read / On-Write)
//	join(x, y)  → delayed last-arc (y, x) + loop (x, x)
//	halt(x)     → stop-arc (x, ×)
type DetectorSink struct {
	D *core.Detector

	accesses []core.Access // scratch batch reused by EventBatch
}

// NewDetectorSink returns a sink wrapping a fresh detector sized for
// roughly nTasks tasks, on the default (open-addressing) storage.
func NewDetectorSink(nTasks int) *DetectorSink {
	return &DetectorSink{D: core.NewDetector(nTasks, 64)}
}

// NewDetectorSinkStorage is NewDetectorSink with an explicit per-location
// storage backend (openaddr or shadow); every backend reports
// identical races (see the differential tests).
func NewDetectorSinkStorage(nTasks int, s core.Storage) *DetectorSink {
	return NewDetectorSinkSized(nTasks, 64, s)
}

// NewDetectorSinkSized additionally passes a location-count hint, so a
// monitor that knows its scale starts with right-sized tables instead of
// growing through every doubling.
func NewDetectorSinkSized(nTasks, locHint int, s core.Storage) *DetectorSink {
	return &DetectorSink{D: core.NewDetectorStorage(nTasks, locHint, s)}
}

// NewDetectorSinkShadow is NewDetectorSink with paged shadow-memory
// location storage — allocation-free on dense address ranges, identical
// verdicts (see internal/core/shadow.go and its benchmarks).
func NewDetectorSinkShadow(nTasks int) *DetectorSink {
	return &DetectorSink{D: core.NewDetectorShadow(nTasks)}
}

// Event implements Sink.
func (s *DetectorSink) Event(e Event) {
	w := s.D.W
	switch e.Kind {
	case EvBegin:
		w.Visit(e.T)
	case EvFork:
		// The fork arc (x, y) is not a last-arc: Walk ignores it. Make
		// sure the child is registered before any query mentions it.
		w.Grow(e.U + 1)
	case EvJoin:
		w.LastArc(e.U, e.T) // delayed last-arc (y, x)
		w.Visit(e.T)        // the join operation itself is a step of x
	case EvHalt:
		w.StopArc(e.T)
	case EvRead:
		w.Visit(e.T)
		s.D.OnRead(e.T, e.Loc)
	case EvWrite:
		w.Visit(e.T)
		s.D.OnWrite(e.T, e.Loc)
	}
}

// EventBatch implements BatchSink: control events are applied one by
// one, but maximal runs of memory accesses are handed to the detector's
// OnAccessBatch in a reused scratch slab, replacing per-event interface
// dispatch and switch overhead with one call per run.
func (s *DetectorSink) EventBatch(events []Event) {
	for i := 0; i < len(events); {
		e := events[i]
		if e.Kind != EvRead && e.Kind != EvWrite {
			s.Event(e)
			i++
			continue
		}
		acc := s.accesses[:0]
		for i < len(events) {
			e = events[i]
			if e.Kind != EvRead && e.Kind != EvWrite {
				break
			}
			acc = append(acc, core.Access{
				Loc:   e.Loc,
				T:     int32(e.T),
				Write: e.Kind == EvWrite,
			})
			i++
		}
		s.accesses = acc
		s.D.OnAccessBatch(acc)
	}
}

// Races exposes the detector's retained reports.
func (s *DetectorSink) Races() []core.Race { return s.D.Races() }

// Racy reports whether any race was detected.
func (s *DetectorSink) Racy() bool { return s.D.Racy() }

// Stats exposes the detector's operation-count snapshot (memops,
// suprema/union-find counts, storage probes, batch histogram).
func (s *DetectorSink) Stats() core.Stats { return s.D.Stats() }

// CheckAccounting verifies the Theorem 3/5 operation accounting on the
// detector's live counters; see core.Detector.CheckAccounting.
func (s *DetectorSink) CheckAccounting() error { return s.D.CheckAccounting() }
