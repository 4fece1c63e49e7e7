// The E19 experiment: persist/retrieve throughput of the durable
// report store (internal/store). One realistic finished-report body
// (the binary encoding raced persists) is written N times (distinct tokens) and read back, against
// three backends: the in-memory store, the hash-chained log with fsync
// after every Put (the raced default), and the log with -no-sync.
//
// Every Get is checked byte-identical to what was Put, and the log
// cells also time a full reopen (the open-time scan that re-verifies
// the whole chain and rebuilds the token index) plus a standalone
// Verify pass — the costs a restarted raced pays before serving.
package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"repro/internal/store"
	"repro/internal/workload"

	race2d "repro"
)

// storeCell is one measured backend point, serialized into
// BENCH_race2d.json under "store".
type storeCell struct {
	Backend   string `json:"backend"` // memory | log | log-nosync
	Fsync     bool   `json:"fsync"`
	Records   int    `json:"records"`
	BodyBytes int    `json:"body_bytes"`

	PutsPerSec float64 `json:"puts_per_s"`
	PutUsMean  float64 `json:"put_us_mean"`
	GetsPerSec float64 `json:"gets_per_s"`

	// ReopenMs is the OpenLog scan-and-verify over the full chain
	// (0 for the memory backend, which has nothing to reopen).
	ReopenMs float64 `json:"reopen_ms"`
	VerifyMs float64 `json:"verify_ms"`

	StoreBytes int64 `json:"store_bytes"`
	Segments   int   `json:"segments"`
}

// storeBody renders one realistic report body: the binary encoding of
// a finished detection over a racy fork-join workload, the same bytes
// a raced session persists before acking Finish.
func storeBody() []byte {
	d := race2d.NewEngineSink(race2d.Engine2D)
	c := workload.ForkJoin{Seed: 19, Ops: 4000, MaxDepth: 6,
		Mix: workload.Mix{Locs: 32, ReadFrac: 0.6}}
	if _, err := c.Run(d); err != nil {
		panic(fmt.Sprintf("bench: store workload: %v", err))
	}
	body, _ := d.Report().AppendBinary(nil) // never fails
	return body
}

// runStoreCell drives one backend: N puts, 4 read passes with
// byte-identity asserted on every hit, then (log backends) a timed
// reopen and Verify.
func runStoreCell(name string, mem, noSync bool, n int, body []byte) storeCell {
	var (
		st  store.Store
		dir string
	)
	if mem {
		st = store.NewMemory(0)
	} else {
		var err error
		if dir, err = os.MkdirTemp("", "bench2d-store-*"); err != nil {
			panic(fmt.Sprintf("bench: store: %v", err))
		}
		defer os.RemoveAll(dir)
		lg, err := store.OpenLog(store.LogConfig{Dir: dir, NoSync: noSync})
		if err != nil {
			panic(fmt.Sprintf("bench: store: %v", err))
		}
		st = lg
	}

	putStart := time.Now()
	for i := 0; i < n; i++ {
		rec := store.Record{
			Token:   uint64(i + 1),
			Session: uint64(i + 1),
			NextSeq: uint64(4 * n),
			Tenant:  "bench",
			JSON:    body,
		}
		if err := st.Put(rec); err != nil {
			panic(fmt.Sprintf("bench: store %s: put %d: %v", name, i, err))
		}
	}
	putWall := time.Since(putStart)

	const passes = 4
	getStart := time.Now()
	for p := 0; p < passes; p++ {
		for i := 0; i < n; i++ {
			rec, err := st.Get(uint64(i + 1))
			if err != nil {
				panic(fmt.Sprintf("bench: store %s: get %d: %v", name, i, err))
			}
			if !bytes.Equal(rec.JSON, body) {
				panic(fmt.Sprintf("bench: store %s: token %d read back different bytes", name, i+1))
			}
		}
	}
	getWall := time.Since(getStart)

	verifyStart := time.Now()
	if err := st.Verify(); err != nil {
		panic(fmt.Sprintf("bench: store %s: verify: %v", name, err))
	}
	verifyMs := float64(time.Since(verifyStart).Microseconds()) / 1e3

	snap := st.Stats()
	cell := storeCell{
		Backend:    name,
		Fsync:      !mem && !noSync,
		Records:    n,
		BodyBytes:  len(body),
		PutsPerSec: float64(n) / putWall.Seconds(),
		PutUsMean:  float64(putWall.Microseconds()) / float64(n),
		GetsPerSec: float64(passes*n) / getWall.Seconds(),
		VerifyMs:   verifyMs,
		StoreBytes: snap.Bytes,
		Segments:   snap.Segments,
	}
	if err := st.Close(); err != nil {
		panic(fmt.Sprintf("bench: store %s: close: %v", name, err))
	}

	if !mem {
		// What a restarted raced pays before its first ack: scan every
		// segment, re-hash the chain, rebuild the token index.
		reopenStart := time.Now()
		lg, err := store.OpenLog(store.LogConfig{Dir: dir, NoSync: noSync})
		if err != nil {
			panic(fmt.Sprintf("bench: store %s: reopen: %v", name, err))
		}
		cell.ReopenMs = float64(time.Since(reopenStart).Microseconds()) / 1e3
		rec, err := lg.Get(uint64(n))
		if err != nil || !bytes.Equal(rec.JSON, body) {
			panic(fmt.Sprintf("bench: store %s: post-reopen get: %v", name, err))
		}
		lg.Close()
	}
	return cell
}

// e19 prints the durable-store table (EXPERIMENTS E19) and returns the
// cells for BENCH_race2d.json.
func e19(quick bool) []storeCell {
	n := 512
	if quick {
		n = 96
	}
	body := storeBody()

	cells := []storeCell{
		runStoreCell("memory", true, false, n, body),
		runStoreCell("log", false, false, n, body),
		runStoreCell("log-nosync", false, true, n, body),
	}

	w := table("\nE19: durable report store — persist/retrieve throughput, fsync on vs off")
	fmt.Fprintln(w, "backend\tfsync\trecords\tbody B\tputs/s\tput µs\tgets/s\treopen ms\tverify ms\tstore KB\tsegments")
	for _, c := range cells {
		fmt.Fprintf(w, "%s\t%v\t%d\t%d\t%.0f\t%.1f\t%.0f\t%.2f\t%.2f\t%.0f\t%d\n",
			c.Backend, c.Fsync, c.Records, c.BodyBytes, c.PutsPerSec, c.PutUsMean,
			c.GetsPerSec, c.ReopenMs, c.VerifyMs, float64(c.StoreBytes)/(1<<10), c.Segments)
	}
	w.Flush()
	fmt.Println("note: single-host numbers; the fsync row is bounded by device sync" +
		"\nlatency, not by framing or hashing — compare against log-nosync for the" +
		"\nCPU cost of the chain itself, and against memory for the interface floor.")
	return cells
}
