// The E18 experiment: cluster routing end to end. K concurrent client
// sessions stream the same recorded trace through one in-process
// racedctl gateway routing over N in-process raced backends; each
// session is consistent-hash-placed by its RouteKey, so this measures
// the fleet-level scaling of the service — gateway relay, per-backend
// session parallelism — plus the gateway's own proxy overhead at N=1
// versus the direct-to-raced E14 numbers.
//
// Verdict parity with an in-process replay is asserted on every
// session of every cell: routing must never change a verdict.
package main

import (
	"fmt"
	"net"
	"sort"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/fj"
	"repro/internal/server"

	race2d "repro"
)

// clusterCell is one measured (backends, sessions) point, serialized
// into BENCH_race2d.json under "cluster".
type clusterCell struct {
	Backends         int `json:"backends"`
	Sessions         int `json:"sessions"`
	EventsPerSession int `json:"events_per_session"`
	TotalEvents      int `json:"total_events"`

	WallMs          float64 `json:"wall_ms"`
	EventsPerSec    float64 `json:"events_per_s"` // aggregate across sessions
	Speedup         float64 `json:"speedup_vs_one_backend"`
	SessionMsMedian float64 `json:"session_ms_median"`
	SessionMsMax    float64 `json:"session_ms_max"`

	// Gateway-side accounting for the cell's run.
	GatewayFrames uint64 `json:"gateway_frames"`
	GatewayBytes  uint64 `json:"gateway_bytes"`
	BackendsUsed  int    `json:"backends_used"`

	Racy bool `json:"racy"`
}

// runClusterCell boots n raced backends and a gateway over them, drives
// k concurrent sessions each streaming tr through the gateway, and
// returns the wall time, per-session durations, and gateway stats.
func runClusterCell(tr *traceAndBaseline, n, k int) (time.Duration, []time.Duration, cluster.Stats, int) {
	backends := make([]cluster.Backend, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			panic(fmt.Sprintf("bench: cluster: %v", err))
		}
		srv := server.New(server.Config{MaxSessions: k})
		go srv.Serve(ln)
		defer srv.Close()
		// No separate health listener: the prober falls back to a bare
		// TCP probe, which raced answers silently (empty handshake).
		backends[i] = cluster.Backend{Addr: ln.Addr().String()}
	}
	gw, err := cluster.NewGateway(cluster.Config{
		Backends:      backends,
		ProbeInterval: 200 * time.Millisecond,
	})
	if err != nil {
		panic(fmt.Sprintf("bench: cluster: %v", err))
	}
	defer gw.Close()
	gln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(fmt.Sprintf("bench: cluster: %v", err))
	}
	go gw.Serve(gln)
	addr := gln.Addr().String()

	durs := make([]time.Duration, k)
	errc := make(chan error, k)
	start := time.Now()
	for i := 0; i < k; i++ {
		go func(i int) {
			t0 := time.Now()
			// Fibonacci-hashed route keys spread the sessions over the
			// ring deterministically run to run.
			sess, err := client.Dial(addr, client.WithRouteKey(uint64(i+1)*0x9E3779B97F4A7C15))
			if err != nil {
				errc <- err
				return
			}
			defer sess.Close()
			sess.EventBatch(tr.trace.Events)
			rep, err := sess.Finish()
			if err != nil {
				errc <- err
				return
			}
			durs[i] = time.Since(t0)
			baseline := tr.baseline
			if rep.Count != baseline.Count || rep.Stats.MemOps() != baseline.Stats.MemOps() ||
				rep.Locations != baseline.Locations {
				errc <- fmt.Errorf("session %d: routed verdict (races=%d memops=%d locs=%d) != local (races=%d memops=%d locs=%d)",
					i, rep.Count, rep.Stats.MemOps(), rep.Locations,
					baseline.Count, baseline.Stats.MemOps(), baseline.Locations)
				return
			}
			errc <- nil
		}(i)
	}
	for i := 0; i < k; i++ {
		if err := <-errc; err != nil {
			panic(fmt.Sprintf("bench: cluster n=%d k=%d: %v", n, k, err))
		}
	}
	wall := time.Since(start)
	st := gw.Stats()
	used := 0
	for _, placed := range st.RoutedBy {
		if placed > 0 {
			used++
		}
	}
	return wall, durs, st, used
}

// traceAndBaseline bundles the recorded workload with its in-process
// verdict so every cell shares one replay.
type traceAndBaseline struct {
	trace    *fj.Trace
	baseline *race2d.Report
}

// clusterTrace records the shared workload and its local baseline.
// It reuses the E14 trace so the N=1 cell is directly comparable to
// E14's same-K cell: the delta is the gateway hop.
func clusterTrace(quick bool) *traceAndBaseline {
	tr := serveTrace(quick)
	d := race2d.NewEngineSink(race2d.Engine2D)
	tr.Replay(d)
	return &traceAndBaseline{trace: tr, baseline: d.Report()}
}

// clusterCells measures the E18 matrix.
func clusterCells(quick bool) []clusterCell {
	ns := []int{1, 2, 4}
	k := 8
	if quick {
		k = 4
	}
	tr := clusterTrace(quick)

	var cells []clusterCell
	var base float64
	for _, n := range ns {
		var durs []time.Duration
		var st cluster.Stats
		var used int
		wall := medianOf3(func() time.Duration {
			w, ds, s, u := runClusterCell(tr, n, k)
			durs, st, used = ds, s, u
			return w
		})
		sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
		total := k * len(tr.trace.Events)
		eps := float64(total) / wall.Seconds()
		if n == 1 {
			base = eps
		}
		cells = append(cells, clusterCell{
			Backends:         n,
			Sessions:         k,
			EventsPerSession: len(tr.trace.Events),
			TotalEvents:      total,
			WallMs:           float64(wall.Microseconds()) / 1e3,
			EventsPerSec:     eps,
			Speedup:          eps / base,
			SessionMsMedian:  float64(durs[len(durs)/2].Microseconds()) / 1e3,
			SessionMsMax:     float64(durs[len(durs)-1].Microseconds()) / 1e3,
			GatewayFrames:    st.Frames,
			GatewayBytes:     st.Bytes,
			BackendsUsed:     used,
			Racy:             tr.baseline.Count > 0,
		})
	}
	return cells
}

// e18 prints the cluster-routing table (EXPERIMENTS E18) and returns
// the cells for BENCH_race2d.json.
func e18(quick bool) []clusterCell {
	cells := clusterCells(quick)
	w := table("\nE18: cluster routing — K sessions through one racedctl gateway over N raced backends")
	fmt.Fprintln(w, "backends\tsessions\twall ms\tMevents/s\tspeedup\tsession ms p50\tsession ms max\tgw frames\tgw MB\tused\tracy")
	for _, c := range cells {
		fmt.Fprintf(w, "%d\t%d\t%.1f\t%.2f\t%.2fx\t%.1f\t%.1f\t%d\t%.2f\t%d\t%v\n",
			c.Backends, c.Sessions, c.WallMs, c.EventsPerSec/1e6, c.Speedup,
			c.SessionMsMedian, c.SessionMsMax, c.GatewayFrames,
			float64(c.GatewayBytes)/(1<<20), c.BackendsUsed, c.Racy)
	}
	w.Flush()
	return cells
}
