package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/fj"
	"repro/internal/workload"

	race2d "repro"
)

// sizes fixes how much work each workload does. The full sizes are what
// BENCHMARK.json's workloads describe; the smoke sizes only check that
// every path runs and every metric is produced.
type sizes struct {
	// stream-clean: a race-free pipeline of Stages×Items cells, each
	// writing then reading Payload private locations.
	cleanStages, cleanItems, cleanPayload int
	// stream-racy: the E14 fork-join trace (64 locations, ReadFrac 0.6).
	racyOps int
	// durable-churn: a pool of short fork-join traces, event and race
	// counts within bands.
	poolTraces, poolOps   int
	poolEvents, poolRaces [2]int
	// churnRate is durable-churn's fixed arrival rate, sessions/s.
	churnRate float64
	// minSessions is the fewest sessions a phase completes, so that
	// session_ms_p90 has at least ten samples beyond it.
	minSessions int
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps int
	// localBudget bounds the local replay measurement.
	localBudget time.Duration
	// ladderEvents scales the ladder's repetitions: each rung replays
	// about this many events in total.
	ladderEvents int
	// storePuts is how many verdict records the store and repl rungs put.
	storePuts int
}

var fullSizes = sizes{
	cleanStages: 8, cleanItems: 1024, cleanPayload: 128,
	racyOps:    60000,
	poolTraces: 32, poolOps: 4000, poolEvents: [2]int{3000, 3400}, poolRaces: [2]int{3, 6},
	churnRate:    40,
	minSessions:  100,
	setupReps:    5,
	localBudget:  6 * time.Second,
	ladderEvents: 4_000_000,
	storePuts:    40,
}

var smokeSizes = sizes{
	cleanStages: 4, cleanItems: 16, cleanPayload: 8,
	racyOps:    2000,
	poolTraces: 4, poolOps: 300, poolEvents: [2]int{100, 300}, poolRaces: [2]int{0, 300},
	churnRate:    50,
	minSessions:  6,
	setupReps:    2,
	localBudget:  50 * time.Millisecond,
	ladderEvents: 20_000,
	storePuts:    4,
}

// Workload names, as BENCHMARK.json and the docs use them.
const (
	streamClean  = "stream-clean"
	streamRacy   = "stream-racy"
	durableChurn = "durable-churn"
)

var workloadNames = []string{streamClean, streamRacy, durableChurn}

// clients is the closed loops' client count and the open loop's slot
// count: load stays within the two cores the benchmark is sized for.
const clients = 2

// streamResumeWindow is how long the stream workloads' server keeps a
// finished verdict fetchable. It bounds the memory the in-memory store
// holds for stream-racy's 420 KB verdicts; fetches only ask for
// verdicts that recent (see recentVerdicts).
const streamResumeWindow = 5 * time.Second

// job is one trace a session streams, with the verdict it must produce.
type job struct {
	events []race2d.Event
	report *race2d.Report
	// ref is json.Marshal of the in-process replay, event by event —
	// the call sequence the server's detector sees, so the bytes of
	// every delivered and fetched verdict must equal it.
	ref []byte
}

func newJob(tr *race2d.Trace) (*job, error) {
	d, err := race2d.NewStreamDetector()
	if err != nil {
		return nil, err
	}
	tr.Replay(d)
	rep := d.Report()
	if err := race2d.CheckAccounting(rep.Stats, rep.Tasks); err != nil {
		return nil, fmt.Errorf("reference replay: %w", err)
	}
	ref, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	return &job{events: tr.Events, report: rep, ref: ref}, nil
}

// makeJobs generates the workload's traces from the seed and replays
// each in-process for its reference verdict.
//
// The stream workloads each stream one trace of a fixed shape, and the
// seed places it in the address space: a pure offset above every
// generated address, which keeps the deltas the block codec sees and
// the length of every location name in the verdict unchanged. So runs
// with different seeds do the same work. durable-churn's pool is drawn
// from the seed.
func makeJobs(name string, seed int64, sz sizes) ([]*job, error) {
	rng := rand.New(rand.NewSource(seed))
	offset := func(tr *race2d.Trace) *race2d.Trace {
		off := race2d.Addr(rng.Intn(15)+1) << 44
		for i := range tr.Events {
			if e := &tr.Events[i]; e.Kind == fj.EvRead || e.Kind == fj.EvWrite {
				e.Loc += off
			}
		}
		return tr
	}
	switch name {
	case streamClean:
		tr := &race2d.Trace{}
		p := workload.Pipeline{Stages: sz.cleanStages, Items: sz.cleanItems, Payload: sz.cleanPayload}
		if _, err := p.Run(tr); err != nil {
			return nil, err
		}
		j, err := newJob(offset(tr))
		return []*job{j}, err
	case streamRacy:
		// The E14 serve trace: generator seed 41 at the full size gives
		// 48,044 events and 3,844 races.
		tr := &race2d.Trace{}
		w := workload.ForkJoin{Seed: 41, Ops: sz.racyOps, MaxDepth: 8, Mix: workload.Mix{Locs: 64, ReadFrac: 0.6}}
		if _, err := w.Run(tr); err != nil {
			return nil, err
		}
		j, err := newJob(offset(tr))
		return []*job{j}, err
	case durableChurn:
		jobs := make([]*job, sz.poolTraces)
		for i := range jobs {
			var err error
			if jobs[i], err = pickForkJoin(rng, sz.poolOps, sz.poolEvents, sz.poolRaces); err != nil {
				return nil, err
			}
		}
		return jobs, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// pickForkJoin generates fork-join traces from generator seeds drawn
// from rng until one has its event and race counts within the bands.
// The generator's programs vary from a few events to the full operation
// budget with its seed; the bands hold the pool's shape, and so its
// verdict sizes, steady across benchmark seeds.
func pickForkJoin(rng *rand.Rand, ops int, events, races [2]int) (*job, error) {
	for try := 0; try < 1000; try++ {
		tr := &race2d.Trace{}
		w := workload.ForkJoin{Seed: rng.Int63(), Ops: ops, MaxDepth: 6, Mix: workload.Mix{Locs: 4096, ReadFrac: 0.8}}
		if _, err := w.Run(tr); err != nil {
			return nil, err
		}
		if n := len(tr.Events); n < events[0] || n > events[1] {
			continue
		}
		j, err := newJob(tr)
		if err != nil {
			return nil, err
		}
		if j.report.Count >= races[0] && j.report.Count <= races[1] {
			return j, nil
		}
	}
	return nil, fmt.Errorf("no fork-join trace of %d ops with %v events and %v races", ops, events, races)
}

func totalEvents(jobs []*job) int {
	n := 0
	for _, j := range jobs {
		n += len(j.events)
	}
	return n
}

// bench is one workload, set up and ready to run sessions against.
type bench struct {
	name string
	seed int64
	sz   sizes
	jobs []*job
	tgt  *target
	// Open loop only (durable-churn): per arrival, the job it streams
	// and the gateway route key it presents.
	picks []int
	keys  []uint64
}

func (b *bench) open() bool { return b.name == durableChurn }

// setupBench generates the inputs and starts the system under test.
func setupBench(name string, seed int64, sz sizes, dir string) (*bench, error) {
	jobs, err := makeJobs(name, seed, sz)
	if err != nil {
		return nil, err
	}
	b := &bench{name: name, seed: seed, sz: sz, jobs: jobs}
	if b.open() {
		rng := rand.New(rand.NewSource(seed))
		n := b.arrivals(maxPhase)
		b.picks = make([]int, n)
		b.keys = make([]uint64, n)
		for i := range b.picks {
			b.picks[i] = rng.Intn(len(jobs))
			b.keys[i] = rng.Uint64() | 1
		}
		b.tgt, err = startChurnTarget(dir)
	} else {
		b.tgt, err = startStreamTarget()
	}
	if err != nil {
		return nil, err
	}
	return b, nil
}

// maxPhase is the longest phase --seconds allows.
const maxPhase = 60 * time.Second

// arrivals is the open loop's session count for a phase of length d.
func (b *bench) arrivals(d time.Duration) int {
	return max(b.sz.minSessions, int(b.sz.churnRate*d.Seconds()))
}

// timedSetup runs set-up sz.setupReps times and keeps the last; it
// returns the kept bench and the median set-up time in seconds.
func timedSetup(name string, seed int64, sz sizes, dir string) (*bench, float64, error) {
	var times []float64
	var b *bench
	for r := 0; r < sz.setupReps; r++ {
		if b != nil {
			if err := b.tgt.close(); err != nil {
				return nil, 0, fmt.Errorf("teardown: %w", err)
			}
			b = nil
		}
		runtime.GC()
		repDir := filepath.Join(dir, fmt.Sprintf("setup-%d", r))
		t := time.Now()
		nb, err := setupBench(name, seed, sz, repDir)
		times = append(times, time.Since(t).Seconds())
		if err != nil {
			return nil, 0, err
		}
		b = nb
	}
	runtime.GC()
	return b, median(times), nil
}

// phase collects one session phase's outcomes.
type phase struct {
	mu        sync.Mutex
	sessions  []float64 // ms, call (open loop: due time) to verdict in hand
	fetches   []float64 // ms
	lags      []float64 // ms, open loop: start minus due time
	events    int64
	attempted int
	failed    int
	errs      []string
	done      []finished // completed sessions, in completion order

	reconnects, resends uint64
	wall                time.Duration
}

// finished is one completed session whose verdict a fetch can ask for.
type finished struct {
	token  uint64
	job    *job
	tenant int
	at     time.Time
}

func (p *phase) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

func (p *phase) completed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.sessions)
}

var errMismatch = errors.New("verdict not byte-identical to the in-process replay")

// sessionResult is one checked session.
type sessionResult struct {
	token               uint64
	dur                 time.Duration
	reconnects, resends uint64
}

// runSession streams j through one client session and checks the
// verdict. rootName names the session's root span, which ends when the
// verdict is in hand; from is when the session's latency starts
// counting.
func runSession(rec *Recorder, rootName, addr string, j *job, from time.Time, opts ...client.Option) (sessionResult, error) {
	root := rec.Start(rootName, 0)
	rep, res, err := stream(rec, root, addr, j, opts)
	rec.End(root)
	res.dur = time.Since(from)
	if err != nil {
		return res, err
	}
	got, err := json.Marshal(rep)
	if err != nil {
		return res, err
	}
	if !bytes.Equal(got, j.ref) {
		return res, errMismatch
	}
	return res, nil
}

// stream dials, sends j's events and waits for the verdict, with a span
// under root around each client call.
func stream(rec *Recorder, root int, addr string, j *job, opts []client.Option) (*race2d.Report, sessionResult, error) {
	var res sessionResult
	sp := rec.Start("client.dial", root)
	sess, err := client.Dial(addr, opts...)
	rec.End(sp)
	if err != nil {
		return nil, res, fmt.Errorf("dial: %w", err)
	}
	defer sess.Close()
	sp = rec.Start("client.send", root)
	sess.EventBatch(j.events)
	err = sess.Flush()
	rec.End(sp)
	if err != nil {
		return nil, res, fmt.Errorf("send: %w", err)
	}
	sp = rec.Start("client.finish", root)
	rep, err := sess.Finish()
	rec.End(sp)
	if err != nil {
		return nil, res, fmt.Errorf("finish: %w", err)
	}
	st := sess.Stats()
	res.token, res.reconnects, res.resends = sess.Token(), st.Reconnects, st.Resends
	return rep, res, nil
}

// runFetch retrieves a verdict by token and checks its bytes.
func runFetch(rec *Recorder, addr string, f finished, opts ...client.Option) (time.Duration, error) {
	sp := rec.Start("client.fetch", 0)
	t := time.Now()
	got, err := client.Fetch(addr, f.token, opts...)
	d := time.Since(t)
	rec.End(sp)
	if err != nil {
		return d, fmt.Errorf("fetch: %w", err)
	}
	if got.Partial || !bytes.Equal(got.JSON, f.job.ref) {
		return d, fmt.Errorf("fetch: %w", errMismatch)
	}
	return d, nil
}

// runPhase runs the workload's sessions for the given time and returns
// what they did. rec, when non-nil, records spans around every call.
func (b *bench) runPhase(rec *Recorder, d time.Duration) *phase {
	if b.open() {
		return b.openLoop(rec, d)
	}
	return b.closedLoop(rec, d)
}

// closedLoop: each client streams the workload's trace session after
// session until the phase has lasted d and completed minSessions (or
// twice d has passed). Before each session a client thinks for a
// seeded-random time, exponential with a mean of thinkShare of its
// previous session and fetch: without it the two clients lock into one
// relative phase (both streaming at once, or taking turns) for a whole
// run, and runs differ by which one they fell into.
func (b *bench) closedLoop(rec *Recorder, d time.Duration) *phase {
	p := &phase{}
	start := time.Now()
	var wg sync.WaitGroup
	for slot := 0; slot < clients; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*7919 + int64(slot)))
			var cycle time.Duration
			for {
				el := time.Since(start)
				if (el >= d && p.completed() >= b.sz.minSessions) || el >= 2*d {
					return
				}
				time.Sleep(time.Duration(rng.ExpFloat64() * thinkShare * float64(cycle)))
				t := time.Now()
				j := b.jobs[0]
				res, err := runSession(rec, "session", b.tgt.addr, j, t)
				b.finishSession(rec, p, rng, j, 0, res, err)
				cycle = time.Since(t)
			}
		}(slot)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// thinkShare is the closed loops' mean think time, as a share of a
// client's previous session and fetch.
const thinkShare = 0.1

// Tenant credentials durable-churn's sessions alternate between.
var tenantNames = [2]string{"alpha", "beta"}

func tenantKey(t int) string  { return "key-" + tenantNames[t] }
func tenantAuth(t int) string { return tenantNames[t] + ":" + tenantKey(t) }

// openLoop: sessions arrive at sz.churnRate for d, each due at a fixed
// time whether or not an earlier one is still running; clients slots
// serve them in order. A session's latency counts from its due time.
func (b *bench) openLoop(rec *Recorder, d time.Duration) *phase {
	p := &phase{}
	n := b.arrivals(d)
	interval := time.Duration(float64(time.Second) / b.sz.churnRate)
	var next atomic.Int64
	start := time.Now()
	var wg sync.WaitGroup
	for slot := 0; slot < clients; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(b.seed*7919 + int64(slot)))
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				time.Sleep(time.Until(due))
				lag := time.Since(due)
				j, tenant := b.jobs[b.picks[i]], i%2
				res, err := runSession(rec, "session", b.tgt.addr, j, due,
					client.WithAuthToken(tenantAuth(tenant)), client.WithRouteKey(b.keys[i]))
				p.mu.Lock()
				p.lags = append(p.lags, ms(lag))
				p.mu.Unlock()
				b.finishSession(rec, p, rng, j, tenant, res, err)
			}
		}(slot)
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// A fetch picks from the latest recentVerdicts verdicts that finished
// within recentAge (and at least the latest one), well inside
// streamResumeWindow.
const (
	recentVerdicts = 16
	recentAge      = 2 * time.Second
)

// recent returns the verdicts a fetch may pick from. Caller holds p.mu.
func (p *phase) recent(now time.Time) []finished {
	i := len(p.done)
	for i > 0 && len(p.done)-i < recentVerdicts && (i == len(p.done) || now.Sub(p.done[i-1].at) <= recentAge) {
		i--
	}
	return p.done[i:]
}

// finishSession records a session's outcome and, after a verdict, has
// the same client fetch a seeded-random one of the recent earlier
// verdicts (fetchesPerSession times).
func (b *bench) finishSession(rec *Recorder, p *phase, rng *rand.Rand, j *job, tenant int, res sessionResult, err error) {
	if err != nil {
		p.fail(err)
		return
	}
	p.mu.Lock()
	p.attempted++
	p.sessions = append(p.sessions, ms(res.dur))
	p.events += int64(len(j.events))
	p.reconnects += res.reconnects
	p.resends += res.resends
	now := time.Now()
	var f finished
	if recent := p.recent(now); len(recent) > 0 {
		f = recent[rng.Intn(len(recent))]
	}
	p.done = append(p.done, finished{token: res.token, job: j, tenant: tenant, at: now})
	p.mu.Unlock()
	if f.job == nil {
		return
	}
	var opts []client.Option
	if b.open() {
		opts = append(opts, client.WithAuthToken(tenantAuth(f.tenant)))
	}
	for k := 0; k < b.fetchesPerSession(); k++ {
		dur, err := runFetch(rec, b.tgt.addr, f, opts...)
		if err != nil {
			p.fail(err)
			return
		}
		p.mu.Lock()
		p.attempted++
		p.fetches = append(p.fetches, ms(dur))
		p.mu.Unlock()
	}
}

// fetchesPerSession is how many times a client fetches the verdict it
// picked. stream-clean's sessions take about 400 ms and its fetches
// about 0.4 ms, so four fetches give its fetch percentiles four times
// the samples for well under 1% of the phase; elsewhere a fetch costs
// too much to repeat.
func (b *bench) fetchesPerSession() int {
	if b.name == streamClean {
		return 4
	}
	return 1
}

// localReplay measures local_events_per_s: one goroutine replays the
// workload's traces in-process through NewStreamDetector EventBatch +
// Report, over and over for sz.localBudget (at least three times), and
// the result is the events replayed per second over the whole budget.
// Every replay's accounting and verdict are checked.
func (b *bench) localReplay() (float64, error) {
	events := 0
	start := time.Now()
	for reps := 0; reps < 3 || time.Since(start) < b.sz.localBudget; reps++ {
		for _, j := range b.jobs {
			d, err := race2d.NewStreamDetector()
			if err != nil {
				return 0, err
			}
			d.EventBatch(j.events)
			rep := d.Report()
			if err := checkReplay(rep, j); err != nil {
				return 0, err
			}
			events += len(j.events)
		}
	}
	return float64(events) / time.Since(start).Seconds(), nil
}

// checkReplay checks a batched local replay: Theorems 3 and 5 hold, and
// its verdict is the reference's. (Its stats differ from the reference
// only in the batch histogram, which batched ingestion fills.)
func checkReplay(rep *race2d.Report, j *job) error {
	if err := race2d.CheckAccounting(rep.Stats, rep.Tasks); err != nil {
		return fmt.Errorf("local replay: %w", err)
	}
	want := j.report
	if rep.Count != want.Count || rep.Tasks != want.Tasks || rep.Locations != want.Locations ||
		!reflect.DeepEqual(rep.Races, want.Races) {
		return fmt.Errorf("local replay: %w", errMismatch)
	}
	return nil
}
