package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"slices"
	"time"

	"repro/client"
	"repro/internal/cluster"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/wire"

	race2d "repro"
)

// The ladder drives the workload's own inputs through one layer at a
// time, in the order a trace flows through them, recording a span
// around every call into a layer's public functions: detector, block
// codec, report encoding, report framing, store put and get, replicated
// put, and the gateway. Its per-layer numbers come from those spans.

// ladderReps is how many times a rung repeats so that it replays about
// sz.ladderEvents events (at least 3, at most 50 times).
func ladderReps(jobs []*job, sz sizes) int {
	return min(50, max(3, sz.ladderEvents/max(1, totalEvents(jobs))))
}

// ladderResult holds the rungs' exact counts; times stay in the spans.
type ladderResult struct {
	core       race2d.Stats // summed over one pass of the workload's traces
	blockBytes int
	storeBytes float64 // per record
	putFails   uint64
	replStats  repl.SourceStats
	gw         cluster.Stats
	coldGW     cluster.Stats
}

// runLadder runs every rung; dir holds the rungs' logs.
func runLadder(rec *Recorder, jobs []*job, sz sizes, dir string) (*ladderResult, error) {
	reps := ladderReps(jobs, sz)
	res := &ladderResult{}
	for _, rung := range []func(*Recorder, []*job, int, *ladderResult) error{coreRung, wireRung, reportRung} {
		if err := rung(rec, jobs, reps, res); err != nil {
			return nil, err
		}
	}
	if err := storeRungs(rec, jobs, sz, dir, res); err != nil {
		return nil, err
	}
	if err := clusterRung(rec, jobs, sz, res); err != nil {
		return nil, err
	}
	return res, nil
}

// coreRung: the detector alone, through NewStreamDetector EventBatch +
// Report, one span per pass over the traces.
func coreRung(rec *Recorder, jobs []*job, reps int, res *ladderResult) error {
	for r := 0; r < reps; r++ {
		var sum race2d.Stats
		sp := rec.Start("core.replay", 0)
		for _, j := range jobs {
			d, err := race2d.NewStreamDetector()
			if err != nil {
				return err
			}
			d.EventBatch(j.events)
			rep := d.Report()
			if err := checkReplay(rep, j); err != nil {
				return err
			}
			st := rep.Stats
			sum.SupQueries += st.SupQueries
			sum.PathSteps += st.PathSteps
			sum.Locations += st.Locations
			sum.Races += st.Races
		}
		rec.End(sp)
		res.core = sum
	}
	return nil
}

// wireRung: the block codec over the client's frame size, one encoder
// and decoder per trace as one session has; spans per pass.
func wireRung(rec *Recorder, jobs []*job, reps int, res *ladderResult) error {
	var blocks [][]byte
	var out []race2d.Event
	for r := 0; r < reps; r++ {
		blocks = blocks[:0]
		var buf []byte
		sp := rec.Start("wire.encode", 0)
		for _, j := range jobs {
			var enc wire.BlockEncoder
			for i := 0; i < len(j.events); i += client.DefaultFrameEvents {
				start := len(buf)
				buf = enc.AppendBlock(buf, uint64(i+1), j.events[i:min(i+client.DefaultFrameEvents, len(j.events))])
				blocks = append(blocks, buf[start:len(buf):len(buf)])
			}
		}
		rec.End(sp)
		res.blockBytes = len(buf)

		k := 0
		sp = rec.Start("wire.decode", 0)
		for _, j := range jobs {
			var dec wire.BlockDecoder
			out = out[:0]
			for i := 0; i < len(j.events); i += client.DefaultFrameEvents {
				var err error
				if _, out, _, err = dec.DecodeBlockInto(out, blocks[k]); err != nil {
					return fmt.Errorf("wire: decode: %w", err)
				}
				k++
			}
			if r == 0 && !slices.Equal(out, j.events) {
				return fmt.Errorf("wire: decoded events differ from the trace")
			}
		}
		rec.End(sp)
	}
	return nil
}

// reportRung: json.Marshal and Unmarshal of each verdict, then one
// Report frame written and read back.
func reportRung(rec *Recorder, jobs []*job, reps int, res *ladderResult) error {
	for r := 0; r < reps; r++ {
		for _, j := range jobs {
			sp := rec.Start("report.marshal", 0)
			body, err := json.Marshal(j.report)
			rec.End(sp)
			if err != nil {
				return err
			}
			sp = rec.Start("report.unmarshal", 0)
			var back race2d.Report
			err = json.Unmarshal(body, &back)
			rec.End(sp)
			if err != nil {
				return err
			}
			again, err := json.Marshal(&back)
			if err != nil || !bytes.Equal(body, j.ref) || !bytes.Equal(again, j.ref) {
				return fmt.Errorf("report: round trip: %w", errMismatch)
			}

			var conn bytes.Buffer
			sp = rec.Start("wire.report_frame", 0)
			err = wire.WriteFrame(&conn, wire.FrameReport, wire.EncodeReport(0, body))
			var payload []byte
			if err == nil {
				_, payload, err = wire.ReadFrame(&conn, nil)
			}
			var got []byte
			if err == nil {
				_, got, err = wire.DecodeReport(payload)
			}
			rec.End(sp)
			if err != nil {
				return fmt.Errorf("report frame: %w", err)
			}
			if !bytes.Equal(got, j.ref) {
				return fmt.Errorf("report frame: %w", errMismatch)
			}
		}
	}
	return nil
}

// records are the workload's own verdicts as store records, cycling
// over its traces.
func records(jobs []*job, n int) []store.Record {
	recs := make([]store.Record, n)
	for i := range recs {
		recs[i] = store.Record{Token: uint64(i + 1), Session: uint64(i + 1), NextSeq: 1,
			Tenant: tenantNames[i%2], JSON: jobs[i%len(jobs)].ref}
	}
	return recs
}

// storeRungs: fsync'd Log.Put and Log.Get of the workload's verdicts,
// then the same puts through a ReplicatedStore to a live follower.
func storeRungs(rec *Recorder, jobs []*job, sz sizes, dir string, res *ladderResult) error {
	recs := records(jobs, sz.storePuts)
	lg, err := store.OpenLog(store.LogConfig{Dir: filepath.Join(dir, "store")})
	if err != nil {
		return err
	}
	defer lg.Close()
	for _, r := range recs {
		sp := rec.Start("store.put", 0)
		err := lg.Put(r)
		rec.End(sp)
		if err != nil {
			return fmt.Errorf("store: put: %w", err)
		}
	}
	for _, r := range recs {
		sp := rec.Start("store.get", 0)
		got, err := lg.Get(r.Token)
		rec.End(sp)
		if err != nil {
			return fmt.Errorf("store: get: %w", err)
		}
		if !bytes.Equal(got.JSON, r.JSON) {
			return fmt.Errorf("store: get: %w", errMismatch)
		}
	}
	st := lg.Stats()
	res.storeBytes = float64(st.Bytes) / float64(max(1, st.Records))
	res.putFails = st.PutFailures

	t := &target{}
	defer t.close()
	follower, err := t.startFollower(filepath.Join(dir, "repl-follower"))
	if err != nil {
		return err
	}
	rs, err := t.openReplicated(filepath.Join(dir, "repl-primary"), follower)
	if err != nil {
		return err
	}
	t.stops = append(t.stops, rs.Close)
	for _, r := range recs {
		sp := rec.Start("repl.put", 0)
		err := rs.Put(r)
		rec.End(sp)
		if err != nil {
			return fmt.Errorf("repl: put: %w", err)
		}
	}
	res.replStats = rs.Source().Stats()
	return nil
}

// clusterRung: sessions of the workload's traces dialled directly to a
// backend and through a gateway, alternating, so the dial spans give
// the gateway's overhead; then every verdict fetched through a second,
// cold gateway that has not seen the sessions, which must fan out to
// find the ones its ring does not place on their home backend.
func clusterRung(rec *Recorder, jobs []*job, sz sizes, res *ladderResult) error {
	t := &target{}
	defer t.close()
	var backends []cluster.Backend
	for i := 0; i < 2; i++ {
		addr, err := t.startServer(server.New(server.Config{}), nil)
		if err != nil {
			return err
		}
		backends = append(backends, cluster.Backend{Addr: addr})
	}
	gw, gwAddr, err := t.startGateway(cluster.Config{Backends: backends}, nil)
	if err != nil {
		return err
	}
	cold, coldAddr, err := t.startGateway(cluster.Config{Backends: backends}, nil)
	if err != nil {
		return err
	}

	pairs := min(20, max(4, sz.ladderEvents/2/max(1, totalEvents(jobs)/len(jobs))))
	var done []finished
	for k := 0; k < pairs; k++ {
		j := jobs[k%len(jobs)]
		for _, via := range []struct{ name, addr string }{
			{"cluster.direct", backends[k%2].Addr},
			{"cluster.gateway", gwAddr},
		} {
			r, err := runSession(rec, via.name, via.addr, j, time.Now())
			if err != nil {
				return fmt.Errorf("%s: %w", via.name, err)
			}
			done = append(done, finished{token: r.token, job: j})
		}
	}
	for _, f := range done {
		if _, err := runFetch(nil, coldAddr, f); err != nil {
			return fmt.Errorf("cluster: cold gateway: %w", err)
		}
	}
	res.gw, res.coldGW = gw.Stats(), cold.Stats()
	return nil
}
