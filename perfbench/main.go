// Command perfbench is the repository's end-to-end benchmark. It
// generates a seeded workload in one process, drives it through the
// public API — the detector, the client, a raced server, and for
// durable-churn a gateway over two store-backed, replicating primaries
// — checks every verdict byte for byte against an in-process replay,
// and prints its metrics as one JSON object on the last line of
// standard output. See README.md for the workloads and metrics.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload stream-racy --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --smoke --seed 5
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"
)

// metricDef is one metric's name and unit as BENCHMARK.json lists it.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a --trace 0 run reports: what a user of the
// system sees, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"events_per_s", "events/s"},
	{"local_events_per_s", "events/s"},
	{"session_ms_p50", "ms"},
	{"session_ms_p90", "ms"},
	{"fetch_ms_p50", "ms"},
	{"fetch_ms_p90", "ms"},
	{"wire_bytes_per_event", "B/event"},
	{"store_bytes_per_verdict", "B"},
	{"cpu_ns_per_event", "ns/event"},
	{"peak_heap_mb", "MiB"},
}

// perLayer are the metrics a --trace 1 run reports: each layer's
// numbers from the ladder's and the traced sessions' spans.
var perLayer = []metricDef{
	{"core.ns_per_event", "ns/event"},
	{"core.sup_queries", "count"},
	{"core.path_steps", "count"},
	{"core.locations", "count"},
	{"core.races", "count"},
	{"wire.encode_ns_per_event", "ns/event"},
	{"wire.decode_ns_per_event", "ns/event"},
	{"wire.block_bytes_per_event", "B/event"},
	{"wire.report_frame_ms", "ms"},
	{"report.marshal_ms", "ms"},
	{"report.unmarshal_ms", "ms"},
	{"report.bytes", "B"},
	{"client.dial_ms", "ms"},
	{"client.send_ms", "ms"},
	{"client.finish_ms", "ms"},
	{"client.reconnects", "count"},
	{"client.resends", "count"},
	{"server.producer_stalls", "count"},
	{"server.max_queue_depth", "events"},
	{"server.frames", "count"},
	{"server.wire_bytes", "B"},
	{"store.put_ms_p50", "ms"},
	{"store.put_ms_p90", "ms"},
	{"store.get_ms_p50", "ms"},
	{"store.bytes_per_record", "B"},
	{"store.put_failures", "count"},
	{"repl.put_ms_p50", "ms"},
	{"repl.put_ms_p90", "ms"},
	{"repl.records_sent", "count"},
	{"repl.acks", "count"},
	{"repl.degraded_events", "count"},
	{"repl.reconnects", "count"},
	{"cluster.dial_overhead_ms", "ms"},
	{"cluster.relay_bytes", "B"},
	{"cluster.fetch_fanout_hit_share", "ratio"},
	{"cluster.dial_fails", "count"},
	{"loadgen.lag_ms_p90", "ms"},
	{"trace.overhead_share", "ratio"},
	{"unattributed_share", "ratio"},
	{"failed_share", "ratio"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark's caller reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// entry is one run as kept in the history file: the result plus what
// it was measured on and how many samples its percentiles rest on.
type entry struct {
	Time     string   `json:"time"`
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  int      `json:"seconds"`
	Trace    int      `json:"trace"`
	Host     Host     `json:"host"`
	Sessions int      `json:"session_samples"`
	Fetches  int      `json:"fetch_samples"`
	Errors   []string `json:"errors,omitempty"`
	result
}

// workDir holds everything a run leaves behind, relative to the
// directory the benchmark runs in: the history file, span dumps, and
// (while a run lasts) its store directories.
const workDir = ".bench_build/perfbench"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: stream-clean, stream-racy or durable-churn")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Int("seconds", 10, "length of the timed session phase, 1 to 60")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	smoke := fs.Bool("smoke", false, "run every workload at a tiny size, traced and untraced, and check every metric is reported")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *smoke {
		if err := runSmoke(*seed, stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench: smoke:", err)
			return 1
		}
		fmt.Fprintln(stdout, "perfbench: smoke ok")
		return 0
	}
	if !slices.Contains(workloadNames, *name) || *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload %v, --seconds 1..60 and --trace 0|1\n", workloadNames)
		return 2
	}
	e, err := measure(*name, *seed, *seconds, *trace == 1, fullSizes)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := appendHistory(e); err != nil {
		fmt.Fprintln(stderr, "perfbench: history:", err)
	}
	for _, msg := range e.Errors {
		fmt.Fprintln(stderr, "perfbench: failure:", msg)
	}
	fmt.Fprintf(stderr, "perfbench: %s seed=%d sessions=%d fetches=%d host=%+v\n",
		e.Workload, e.Seed, e.Sessions, e.Fetches, e.Host)
	line, err := json.Marshal(e.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !e.Correct {
		return 1
	}
	return 0
}

// measure sets the workload up, runs it, tears it down, and removes its
// store directories.
func measure(name string, seed int64, seconds int, traced bool, sz sizes) (*entry, error) {
	dir, err := filepath.Abs(filepath.Join(workDir, fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	b, setupS, err := timedSetup(name, seed, sz, dir)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	e := &entry{
		Time: time.Now().UTC().Format(time.RFC3339), Workload: name, Seed: seed,
		Seconds: seconds, Host: hostInfo(dir),
	}
	d := time.Duration(seconds) * time.Second
	var m map[string]float64
	if traced {
		e.Trace = 1
		m, err = layerMetrics(b, d, dir, e)
	} else {
		m, err = endToEndMetrics(b, setupS, d, e)
	}
	if cerr := b.tgt.close(); err == nil && cerr != nil {
		err = fmt.Errorf("teardown: %w", cerr)
	}
	if err != nil {
		return nil, err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	e.Metrics = make(map[string]metric, len(defs))
	for _, def := range defs {
		v, ok := m[def.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s not measured", def.name)
		}
		e.Metrics[def.name] = metric{Value: v, Unit: def.unit}
	}
	e.Correct = e.Failed == 0 && e.Attempted > 0
	return e, nil
}

// tally folds a phase's outcomes into the entry.
func (e *entry) tally(p *phase) {
	e.Attempted += p.attempted
	e.Failed += p.failed
	e.Sessions += len(p.sessions)
	e.Fetches += len(p.fetches)
	e.Errors = append(e.Errors, p.errs...)
}

// endToEndMetrics runs the local replay, then the timed session phase.
func endToEndMetrics(b *bench, setupS float64, d time.Duration, e *entry) (map[string]float64, error) {
	local, err := b.localReplay()
	if err != nil {
		return nil, err
	}
	runtime.GC()
	bytes0 := b.tgt.clientBytes.Load()
	cpu0 := cpuTime()
	heap := startHeapSampler()
	p := b.runPhase(nil, d)
	peak := heap.stop()
	cpu := cpuTime() - cpu0
	wireBytes := b.tgt.clientBytes.Load() - bytes0
	storeBytes := b.tgt.storeBytesPerVerdict()
	e.tally(p)
	events := float64(max(1, p.events))
	return map[string]float64{
		"setup_s":                 setupS,
		"events_per_s":            float64(p.events) / p.wall.Seconds(),
		"local_events_per_s":      local,
		"session_ms_p50":          quantile(p.sessions, 0.5),
		"session_ms_p90":          quantile(p.sessions, 0.9),
		"fetch_ms_p50":            quantile(p.fetches, 0.5),
		"fetch_ms_p90":            quantile(p.fetches, 0.9),
		"wire_bytes_per_event":    float64(wireBytes) / events,
		"store_bytes_per_verdict": storeBytes,
		"cpu_ns_per_event":        float64(cpu) / events,
		"peak_heap_mb":            peak,
	}, nil
}

// serverTotals sums the session servers' counters.
func serverTotals(t *target) (st struct{ stalls, depth, frames, bytes, putFails uint64 }) {
	for _, srv := range t.servers {
		s := srv.Stats()
		st.stalls += s.ProducerStalls
		st.depth = max(st.depth, s.MaxQueueDepth)
		st.frames += s.Frames
		st.bytes += s.WireBytes
		st.putFails += srv.Store().Stats().PutFailures
	}
	return st
}

// layerMetrics runs the ladder, then the workload's session phase
// untraced and traced, and derives the per-layer metrics from the
// spans and the layers' own counters.
func layerMetrics(b *bench, d time.Duration, dir string, e *entry) (map[string]float64, error) {
	rec := NewRecorder()
	lad, err := runLadder(rec, b.jobs, b.sz, filepath.Join(dir, "ladder"))
	if err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	runtime.GC()
	untraced := b.runPhase(nil, d/2)
	e.tally(untraced)
	runtime.GC()
	srv0 := serverTotals(b.tgt)
	traced := b.runPhase(rec, d/2)
	srv1 := serverTotals(b.tgt)
	e.tally(traced)

	spans := rec.Spans()
	path := filepath.Join(workDir, "spans", fmt.Sprintf("%s-%s-seed%d.json", time.Now().UTC().Format("20060102T150405"), b.name, b.seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		if err := rec.WriteFile(path); err != nil {
			return nil, err
		}
	}

	self := SelfTimes(spans)
	byID := make(map[int]Span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	named := byName(spans)
	dur := func(name string) []float64 {
		var out []float64
		for _, s := range named[name] {
			out = append(out, ms(s.End-s.Start))
		}
		return out
	}
	selfUnder := func(name, parent string) []float64 {
		var out []float64
		for _, s := range named[name] {
			if byID[s.Parent].Name == parent {
				out = append(out, ms(self[s.ID]))
			}
		}
		return out
	}
	var unattributed []float64
	for _, s := range named["session"] {
		unattributed = append(unattributed, float64(self[s.ID])/float64(max(1, s.End-s.Start)))
	}
	nsPerEvent := func(name string) float64 {
		return median(dur(name)) * 1e6 / float64(max(1, totalEvents(b.jobs)))
	}
	var reportBytes float64
	for _, j := range b.jobs {
		reportBytes += float64(len(j.ref)) / float64(len(b.jobs))
	}
	replSt := lad.replStats
	for _, src := range b.tgt.sources {
		st := src.Stats()
		replSt.RecordsSent += st.RecordsSent
		replSt.AcksReceived += st.AcksReceived
		replSt.DegradedEvents += st.DegradedEvents
		replSt.Reconnects += st.Reconnects
	}
	fanoutShare := 1.0
	if lad.coldGW.FetchFanouts > 0 {
		fanoutShare = float64(lad.coldGW.FetchFanoutHits) / float64(lad.coldGW.FetchFanouts)
	}
	dialFails := lad.gw.DialFails + lad.coldGW.DialFails
	if b.tgt.gateway != nil {
		dialFails += b.tgt.gateway.Stats().DialFails
	}
	storePut, replPut := dur("store.put"), dur("repl.put")
	sessionP50 := median(untraced.sessions)
	if sessionP50 == 0 {
		return nil, errors.New("no session completed in the untraced phase")
	}
	return map[string]float64{
		"core.ns_per_event":              nsPerEvent("core.replay"),
		"core.sup_queries":               float64(lad.core.SupQueries),
		"core.path_steps":                float64(lad.core.PathSteps),
		"core.locations":                 float64(lad.core.Locations),
		"core.races":                     float64(lad.core.Races),
		"wire.encode_ns_per_event":       nsPerEvent("wire.encode"),
		"wire.decode_ns_per_event":       nsPerEvent("wire.decode"),
		"wire.block_bytes_per_event":     float64(lad.blockBytes) / float64(max(1, totalEvents(b.jobs))),
		"wire.report_frame_ms":           median(dur("wire.report_frame")),
		"report.marshal_ms":              median(dur("report.marshal")),
		"report.unmarshal_ms":            median(dur("report.unmarshal")),
		"report.bytes":                   reportBytes,
		"client.dial_ms":                 median(selfUnder("client.dial", "session")),
		"client.send_ms":                 median(selfUnder("client.send", "session")),
		"client.finish_ms":               median(selfUnder("client.finish", "session")),
		"client.reconnects":              float64(traced.reconnects),
		"client.resends":                 float64(traced.resends),
		"server.producer_stalls":         float64(srv1.stalls - srv0.stalls),
		"server.max_queue_depth":         float64(srv1.depth),
		"server.frames":                  float64(srv1.frames - srv0.frames),
		"server.wire_bytes":              float64(srv1.bytes - srv0.bytes),
		"store.put_ms_p50":               quantile(storePut, 0.5),
		"store.put_ms_p90":               quantile(storePut, 0.9),
		"store.get_ms_p50":               median(dur("store.get")),
		"store.bytes_per_record":         lad.storeBytes,
		"store.put_failures":             float64(lad.putFails + srv1.putFails),
		"repl.put_ms_p50":                quantile(replPut, 0.5) - quantile(storePut, 0.5),
		"repl.put_ms_p90":                quantile(replPut, 0.9) - quantile(storePut, 0.9),
		"repl.records_sent":              float64(replSt.RecordsSent),
		"repl.acks":                      float64(replSt.AcksReceived),
		"repl.degraded_events":           float64(replSt.DegradedEvents),
		"repl.reconnects":                float64(replSt.Reconnects),
		"cluster.dial_overhead_ms":       median(selfUnder("client.dial", "cluster.gateway")) - median(selfUnder("client.dial", "cluster.direct")),
		"cluster.relay_bytes":            float64(lad.gw.Bytes),
		"cluster.fetch_fanout_hit_share": fanoutShare,
		"cluster.dial_fails":             float64(dialFails),
		"loadgen.lag_ms_p90":             quantile(traced.lags, 0.9),
		"trace.overhead_share":           median(traced.sessions)/sessionP50 - 1,
		"unattributed_share":             median(unattributed),
		"failed_share":                   float64(e.Failed) / float64(max(1, e.Attempted)),
	}, nil
}

// appendHistory appends the run to the history file, one JSON object a
// line, so that runs form a trajectory instead of overwriting each
// other.
func appendHistory(e *entry) error {
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(e)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(workDir, "history.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runSmoke runs every workload at the smoke sizes, untraced and traced,
// and checks that each reports exactly the metrics BENCHMARK.json lists,
// with their units, and that every verdict was correct.
func runSmoke(seed int64, out io.Writer) error {
	want, err := benchmarkMetrics("BENCHMARK.json")
	if err != nil {
		return err
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			e, err := measure(name, seed, 1, traced, smokeSizes)
			if err != nil {
				return fmt.Errorf("%s trace=%v: %w", name, traced, err)
			}
			if !e.Correct {
				return fmt.Errorf("%s trace=%v: %d of %d failed: %v", name, traced, e.Failed, e.Attempted, e.Errors)
			}
			defs := want.EndToEnd
			if traced {
				defs = want.PerLayer
			}
			if len(e.Metrics) != len(defs) {
				return fmt.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, traced, len(e.Metrics), len(defs))
			}
			for _, def := range defs {
				m, ok := e.Metrics[def.Name]
				if !ok || m.Unit != def.Unit {
					return fmt.Errorf("%s trace=%v: metric %s (%s) missing or in another unit: %+v", name, traced, def.Name, def.Unit, m)
				}
			}
			fmt.Fprintf(out, "perfbench: smoke %s trace=%v: %d metrics, %d sessions, %d fetches\n",
				name, traced, len(e.Metrics), e.Sessions, e.Fetches)
		}
	}
	return nil
}

// benchmarkFile is the part of BENCHMARK.json the smoke mode checks.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// benchmarkMetrics reads the metric lists of a BENCHMARK.json.
func benchmarkMetrics(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
