package main

import (
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name  string
		spans []Span
		want  map[int]time.Duration
	}{
		{
			name:  "leaf",
			spans: []Span{{ID: 1, Start: 0, End: 10 * ms}},
			want:  map[int]time.Duration{1: 10 * ms},
		},
		{
			name: "nested",
			spans: []Span{
				{ID: 1, Start: 0, End: 100 * ms},
				{ID: 2, Parent: 1, Start: 10 * ms, End: 40 * ms},
				{ID: 3, Parent: 2, Start: 15 * ms, End: 25 * ms},
				{ID: 4, Parent: 1, Start: 50 * ms, End: 90 * ms},
			},
			want: map[int]time.Duration{1: 30 * ms, 2: 20 * ms, 3: 10 * ms, 4: 40 * ms},
		},
		{
			name: "overlapping children count once",
			spans: []Span{
				{ID: 1, Start: 0, End: 100 * ms},
				{ID: 2, Parent: 1, Start: 10 * ms, End: 50 * ms},
				{ID: 3, Parent: 1, Start: 30 * ms, End: 70 * ms},
				{ID: 4, Parent: 1, Start: 35 * ms, End: 40 * ms},
			},
			want: map[int]time.Duration{1: 40 * ms, 2: 40 * ms, 3: 40 * ms, 4: 5 * ms},
		},
		{
			name: "touching children",
			spans: []Span{
				{ID: 1, Start: 0, End: 30 * ms},
				{ID: 2, Parent: 1, Start: 0, End: 10 * ms},
				{ID: 3, Parent: 1, Start: 10 * ms, End: 20 * ms},
			},
			want: map[int]time.Duration{1: 10 * ms, 2: 10 * ms, 3: 10 * ms},
		},
		{
			name: "child running past its parent is clipped",
			spans: []Span{
				{ID: 1, Start: 10 * ms, End: 50 * ms},
				{ID: 2, Parent: 1, Start: 40 * ms, End: 80 * ms},
				{ID: 3, Parent: 1, Start: 0, End: 15 * ms},
			},
			want: map[int]time.Duration{1: 25 * ms, 2: 40 * ms, 3: 15 * ms},
		},
		{
			name: "open spans are skipped",
			spans: []Span{
				{ID: 1, Start: 0, End: 20 * ms},
				{ID: 2, Parent: 1, Start: 5 * ms, End: -1},
			},
			want: map[int]time.Duration{1: 20 * ms},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := SelfTimes(tc.spans)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d self times, want %d: %v", len(got), len(tc.want), got)
			}
			for id, w := range tc.want {
				if got[id] != w {
					t.Errorf("span %d: self = %v, want %v", id, got[id], w)
				}
			}
		})
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *Recorder
	id := r.Start("x", 0)
	r.End(id)
	if id != 0 || r.Spans() != nil {
		t.Fatalf("nil recorder recorded: id=%d spans=%v", id, r.Spans())
	}
}

func TestRecorderParents(t *testing.T) {
	r := NewRecorder()
	root := r.Start("session", 0)
	child := r.Start("client.dial", root)
	r.End(child)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 2 || spans[1].Parent != root || spans[0].End < spans[1].End {
		t.Fatalf("spans = %+v", spans)
	}
}
