// The E14 experiment: the streaming detection service end to end. K
// concurrent client sessions stream the same recorded trace to one
// in-process raced server (internal/server); each session gets its own
// engine, so this measures session-parallel scaling of the service —
// wire framing, per-session bounded queues, and K detectors — not of a
// single detector, which stays serial by construction.
//
// Verdict parity with an in-process replay is asserted on every session
// of every cell: the service must be an operationally different but
// observationally identical way to run the detector.
//
// e14 is also the report-size gate: it fails when the verdict's binary
// body — the bytes raced sends, stores and replicates — spends more
// than maxReportBytesPerEvent per streamed event.
package main

import (
	"fmt"
	"net"
	"os"
	"sort"
	"time"

	"repro/client"
	"repro/internal/fj"
	"repro/internal/server"
	"repro/internal/workload"

	race2d "repro"
)

// maxReportBytesPerEvent is the report-size gate, next to e17's event
// gate of the same size (the JSON verdict spent ~7.9 B/event).
const maxReportBytesPerEvent = 1.0

// serveCell is one measured K-sessions point, serialized into
// BENCH_race2d.json under "serve".
type serveCell struct {
	Sessions         int `json:"sessions"`
	EventsPerSession int `json:"events_per_session"`
	TotalEvents      int `json:"total_events"`

	WallMs          float64 `json:"wall_ms"`
	EventsPerSec    float64 `json:"events_per_s"` // aggregate across sessions
	SessionMsMedian float64 `json:"session_ms_median"`
	SessionMsMax    float64 `json:"session_ms_max"`

	// Server-side wire and backpressure accounting for the cell's run.
	Frames    uint64 `json:"frames"`
	WireBytes uint64 `json:"wire_bytes"`
	Stalls    uint64 `json:"producer_stalls"`
	MaxDepth  uint64 `json:"max_queue_depth"`

	Racy bool `json:"racy"`

	// The verdict's binary body and its JSON rendering.
	ReportBytes         int     `json:"report_bytes"`
	ReportJSONBytes     int     `json:"report_json_bytes"`
	ReportBytesPerEvent float64 `json:"report_bytes_per_event"`
}

// serveTrace records the deterministic workload every session streams.
func serveTrace(quick bool) *fj.Trace {
	ops := 60000
	if quick {
		ops = 4000
	}
	tr := &fj.Trace{}
	c := workload.ForkJoin{Seed: 41, Ops: ops, MaxDepth: 8,
		Mix: workload.Mix{Locs: 64, ReadFrac: 0.6}}
	if _, err := c.Run(tr); err != nil {
		panic(fmt.Sprintf("bench: serve workload: %v", err))
	}
	return tr
}

// runServeCell starts a fresh server, drives k concurrent sessions each
// streaming tr, and returns the wall time, per-session durations, and
// the server's stats snapshot.
func runServeCell(tr *fj.Trace, k int, baseline *race2d.Report) (time.Duration, []time.Duration, serveStats) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("bench: serve: %v", err))
	}
	srv := server.New(server.Config{MaxSessions: k})
	go srv.Serve(ln)
	defer srv.Close()
	addr := ln.Addr().String()

	durs := make([]time.Duration, k)
	errc := make(chan error, k)
	start := time.Now()
	for i := 0; i < k; i++ {
		go func(i int) {
			t0 := time.Now()
			sess, err := client.Dial(addr)
			if err != nil {
				errc <- err
				return
			}
			defer sess.Close()
			sess.EventBatch(tr.Events)
			rep, err := sess.Finish()
			if err != nil {
				errc <- err
				return
			}
			durs[i] = time.Since(t0)
			// Parity: the remote verdict must match the in-process replay.
			if rep.Count != baseline.Count || rep.Stats.MemOps() != baseline.Stats.MemOps() ||
				rep.Locations != baseline.Locations {
				errc <- fmt.Errorf("session %d: remote verdict (races=%d memops=%d locs=%d) != local (races=%d memops=%d locs=%d)",
					i, rep.Count, rep.Stats.MemOps(), rep.Locations,
					baseline.Count, baseline.Stats.MemOps(), baseline.Locations)
				return
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < k; i++ {
		if err := <-errc; err != nil {
			panic(fmt.Sprintf("bench: serve k=%d: %v", k, err))
		}
	}
	wall := time.Since(start)
	st := srv.Stats()
	return wall, durs, serveStats{
		Frames: st.Frames, WireBytes: st.WireBytes,
		Stalls: st.ProducerStalls, MaxDepth: st.MaxQueueDepth,
	}
}

type serveStats struct {
	Frames, WireBytes, Stalls, MaxDepth uint64
}

// serveCells measures the E14 matrix.
func serveCells(quick bool) []serveCell {
	ks := []int{1, 2, 4, 8}
	if quick {
		ks = []int{1, 2, 4}
	}
	tr := serveTrace(quick)

	// In-process baseline, delivered per event like the server does.
	d := race2d.NewEngineSink(race2d.Engine2D)
	tr.Replay(d)
	baseline := d.Report()
	body, _ := baseline.AppendBinary(nil) // never fails
	js, err := baseline.MarshalJSON()
	if err != nil {
		panic(fmt.Sprintf("bench: serve: %v", err))
	}

	var cells []serveCell
	for _, k := range ks {
		var durs []time.Duration
		var st serveStats
		wall := medianOf3(func() time.Duration {
			w, ds, s := runServeCell(tr, k, baseline)
			durs, st = ds, s
			return w
		})
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		total := k * len(tr.Events)
		cells = append(cells, serveCell{
			Sessions:         k,
			EventsPerSession: len(tr.Events),
			TotalEvents:      total,
			WallMs:           float64(wall.Microseconds()) / 1e3,
			EventsPerSec:     float64(total) / wall.Seconds(),
			SessionMsMedian:  float64(durs[len(durs)/2].Microseconds()) / 1e3,
			SessionMsMax:     float64(durs[len(durs)-1].Microseconds()) / 1e3,
			Frames:           st.Frames,
			WireBytes:        st.WireBytes,
			Stalls:           st.Stalls,
			MaxDepth:         st.MaxDepth,
			Racy:             baseline.Count > 0,

			ReportBytes:         len(body),
			ReportJSONBytes:     len(js),
			ReportBytesPerEvent: float64(len(body)) / float64(len(tr.Events)),
		})
	}
	return cells
}

// e14 prints the streaming-service table (EXPERIMENTS E14) and returns
// the cells for BENCH_race2d.json, with exit code 1 when the report-size
// gate fails.
func e14(quick bool) ([]serveCell, int) {
	cells := serveCells(quick)
	w := table("\nE14: streaming detection service — K concurrent sessions against one raced server")
	fmt.Fprintln(w, "sessions\tevents/session\twall ms\tMevents/s\tsession ms p50\tsession ms max\tframes\twire MB\tstalls\tracy")
	for _, c := range cells {
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%.2f\t%.1f\t%.1f\t%d\t%.2f\t%d\t%v\n",
			c.Sessions, c.EventsPerSession, c.WallMs, c.EventsPerSec/1e6,
			c.SessionMsMedian, c.SessionMsMax, c.Frames,
			float64(c.WireBytes)/(1<<20), c.Stalls, c.Racy)
	}
	w.Flush()
	c := cells[0]
	fmt.Printf("verdict: %d B binary (%.2f B/event, gate %.2f), %d B as JSON\n",
		c.ReportBytes, c.ReportBytesPerEvent, maxReportBytesPerEvent, c.ReportJSONBytes)
	if c.ReportBytesPerEvent > maxReportBytesPerEvent {
		fmt.Fprintf(os.Stderr, "bench2d: e14 report-size gate: the verdict spends %.2f bytes/event, budget %.2f\n",
			c.ReportBytesPerEvent, maxReportBytesPerEvent)
		return cells, 1
	}
	return cells, 0
}
