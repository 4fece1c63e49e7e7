package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed interval recorded around a call into a layer.
// Parent is the ID of the span that caused it (0 for a root); spans of
// one session share their root.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Recorder keeps spans in memory until the run ends. A nil *Recorder is
// tracing off: Start returns 0 and End does nothing, so the same
// session code runs traced and untraced.
type Recorder struct {
	epoch time.Time

	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an empty recorder whose clock starts now.
func NewRecorder() *Recorder { return &Recorder{epoch: time.Now()} }

// Start opens a span under parent and returns its ID.
func (r *Recorder) Start(name string, parent int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, Span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now, End: -1})
	return len(r.spans)
}

// End closes the span with the given ID.
func (r *Recorder) End(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// Spans returns a copy of every span recorded so far.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// WriteFile writes the spans as a JSON array.
func (r *Recorder) WriteFile(path string) error {
	data, err := json.Marshal(r.Spans())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// SelfTimes maps each closed span's ID to its self time: its duration
// minus the part of its interval that its children cover. Children may
// overlap each other (concurrent calls) and may run past their parent;
// only the union of their intervals, clipped to the parent, is
// subtracted.
func SelfTimes(spans []Span) map[int]time.Duration {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		self[s.ID] = s.End - s.Start - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered returns how much of [start, end) the union of the spans'
// intervals covers.
func covered(start, end time.Duration, spans []Span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		lo, hi := max(s.Start, start), min(s.End, end)
		if lo < hi {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var curLo, curHi time.Duration = 0, -1
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// byName groups closed spans by name, in recording order.
func byName(spans []Span) map[string][]Span {
	out := make(map[string][]Span)
	for _, s := range spans {
		if s.End >= 0 {
			out[s.Name] = append(out[s.Name], s)
		}
	}
	return out
}
