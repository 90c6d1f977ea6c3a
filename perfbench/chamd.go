package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"time"

	"chameleon/internal/dse"
	"chameleon/internal/server"
	"chameleon/internal/sim"
)

// chamd-mix drives an in-process chamd (server.New at its default
// worker count, behind a loopback HTTP server) open-loop at fixed
// offered rates, from one generator with two goroutines: a sender
// that issues every request at its due time, and a watcher that polls
// accepted jobs until they finish. Three request kinds share the
// schedule: uncached small sim jobs at the server's default thread
// count, cached resubmits of specs completed before the window, and
// small DSE sweeps whose cells partly overlap those specs.
const (
	chamdScale  = 1024
	chamdInstr  = 50_000
	chamdWarmup = 50_000

	jobRate   = 6.0  // uncached sim jobs per second: 10 rounds of the 12-spec mix in 20 s
	hitRate   = 50.0 // cached resubmits per second: 1000 in 20 s, enough for p99
	dsePeriod = 2500 * time.Millisecond

	pollEvery    = 4 * time.Millisecond
	pollHead     = 3 // oldest pending jobs polled each round
	drainTimeout = 90 * time.Second
	serverStarts = 51 // chamd starts timed for setup_s
)

// The sim job mix. The three workloads cost about the same per job
// (50 to 80 ms alone at 2 threads on a 2-CPU Xeon), so uncached job
// latency has one mode and its median does not jump between clusters
// when the order of jobs changes. Jobs this small keep the offered load
// near a third of the host: at twice the size, CPU stolen by other
// tenants was amplified by queueing into run-to-run spreads of 15%.
var (
	chamdPolicies  = []string{"chameleon-opt", "chameleon", "pom", "alloy"}
	chamdWorkloads = []string{"GemsFDTD", "lbm", "stream"}
)

func simSpec(policy, workload string, seed uint64) server.JobSpec {
	return server.JobSpec{Policy: policy, Workload: workload, Scale: chamdScale,
		Instructions: chamdInstr, Warmup: chamdWarmup, Seed: seed}
}

// chamdInputs is everything the generator sends, built from the seed.
type chamdInputs struct {
	warm   []server.JobSpec // completed before the window; hit targets
	jobs   []server.JobSpec
	hits   []int // index into warm
	sweeps []server.JobSpec
	events []event
}

func chamdSchedule(seed uint64, window time.Duration) chamdInputs {
	rng := rand.New(rand.NewPCG(seed, 0x63_68_61_6d_64))
	base := seed*1000 + 1
	var in chamdInputs
	for i, p := range chamdPolicies {
		in.warm = append(in.warm, simSpec(p, chamdWorkloads[i%len(chamdWorkloads)], base))
	}
	streams := map[string][]time.Duration{
		"job": dueTimes(jobRate, window, 0),
		"hit": dueTimes(hitRate, window, 7*time.Millisecond),
		"dse": dueTimes(float64(time.Second)/float64(dsePeriod), window, dsePeriod/2),
	}
	// Sim jobs cycle through shuffled rounds of every policy x
	// workload pair, so each seed sends the same mix in another order.
	for len(in.jobs) < len(streams["job"]) {
		for _, k := range rng.Perm(len(chamdPolicies) * len(chamdWorkloads)) {
			if len(in.jobs) == len(streams["job"]) {
				break
			}
			p, w := chamdPolicies[k/len(chamdWorkloads)], chamdWorkloads[k%len(chamdWorkloads)]
			in.jobs = append(in.jobs, simSpec(p, w, base+1+uint64(len(in.jobs))))
		}
	}
	for range streams["hit"] {
		in.hits = append(in.hits, rng.IntN(len(in.warm)))
	}
	// Each sweep pairs a warm spec's policy with the next one on the
	// warm spec's workload, over the warm seed and a fresh one: one
	// cell is always cached, the fresh-seed cells never are.
	for i := range streams["dse"] {
		k := rng.IntN(len(chamdPolicies))
		in.sweeps = append(in.sweeps, server.JobSpec{
			Kind:         server.KindDSE,
			Scale:        chamdScale,
			Instructions: chamdInstr,
			Warmup:       chamdWarmup,
			DSE: &dse.Spec{
				Policies:  []string{chamdPolicies[k], chamdPolicies[(k+1)%len(chamdPolicies)]},
				Workloads: []string{chamdWorkloads[k%len(chamdWorkloads)]},
				Seeds:     []uint64{base, base + 500 + uint64(i)},
			},
		})
	}
	in.events = mergeStreams(streams)
	return in
}

// pendingJob is an accepted job the watcher polls until it finishes.
type pendingJob struct {
	id   string
	kind string
	due  time.Duration
}

// chamdLog is what one generator goroutine measured. The sender and
// the watcher each own one and fill different fields; both are read
// once the two have stopped.
type chamdLog struct {
	jobLat, hitLat, sweepLat []float64 // ms, from due time
	submitMS, resultMS, kb   []float64 // cached resubmits
	queueMS, runMS, notifyMS []float64
	lateMS                   []float64
	expandUS, frontUS        []float64
	simInstr, simRunS        float64
	cells, cached, pruned    int
	threads                  []float64
	engines                  map[string]int
	attempted                int
	errs                     []error
}

func (l *chamdLog) op(err error) bool {
	l.attempted++
	if err != nil {
		l.errs = append(l.errs, err)
		return false
	}
	return true
}

// resultBook holds the first result bytes seen for every content
// hash; every later result for the hash must equal them.
type resultBook struct {
	mu    sync.Mutex
	first map[string][]byte
}

func (b *resultBook) check(hash string, raw []byte) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if prev, ok := b.first[hash]; ok {
		if !bytes.Equal(prev, raw) {
			return fmt.Errorf("result for %.12s differs from the first one served", hash)
		}
		return nil
	}
	b.first[hash] = raw
	return nil
}

// timeServerStart times chamd's own start-up: server.New until its
// handler answers /healthz. The request is served in-process, because
// on a 2-vCPU VM a loopback round trip is dominated by cross-CPU
// wake-ups that vary by 40% between runs and are not chamd's work.
func timeServerStart() (time.Duration, error) {
	t0 := time.Now()
	srv := server.New(server.Options{})
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	d := time.Since(t0)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return 0, err
	}
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"ok"`) {
		return 0, fmt.Errorf("/healthz answered %d %q", rec.Code, rec.Body.String())
	}
	return d, nil
}

// startServer starts chamd behind a loopback listener and returns once
// /healthz answers over it.
func startServer(ctx context.Context) (*server.Server, *httptest.Server, *server.Client, error) {
	srv := server.New(server.Options{})
	ts := httptest.NewServer(srv.Handler())
	c := server.NewClient(ts.URL)
	c.Retry.Disabled = true
	for !c.Healthy(ctx) {
		if ctx.Err() != nil {
			stopServer(srv, ts)
			return nil, nil, nil, ctx.Err()
		}
		time.Sleep(time.Millisecond)
	}
	return srv, ts, c, nil
}

func stopServer(srv *server.Server, ts *httptest.Server) {
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // jobs are all finished or abandoned by now
}

func runChamdMix(rep *report, seed uint64, window time.Duration, traced bool) {
	ctx, cancel := context.WithTimeout(context.Background(), window+drainTimeout+30*time.Second)
	defer cancel()

	var setups []float64
	for i := 0; i < serverStarts; i++ {
		d, err := timeServerStart()
		if !rep.op(err, "start chamd") {
			return
		}
		setups = append(setups, d.Seconds())
	}
	rep.set("setup_s", median(setups), len(setups))

	srv, ts, c, err := startServer(ctx)
	if !rep.op(err, "start chamd behind loopback") {
		return
	}
	defer stopServer(srv, ts)

	in := chamdSchedule(seed, window)
	book := &resultBook{first: map[string][]byte{}}
	warmHash := make([]string, len(in.warm))
	for i, spec := range in.warm {
		st, err := c.Submit(ctx, spec)
		if !rep.op(err, "submit warm-up job") {
			return
		}
		if st, err = c.Wait(ctx, st.ID, 5*time.Millisecond); !rep.op(err, "wait warm-up job") {
			return
		}
		var raw json.RawMessage
		if !rep.op(c.Result(ctx, st.ID, &raw), "warm-up result") {
			return
		}
		rep.check(book.check(st.Hash, raw))
		warmHash[i] = st.Hash
	}

	var (
		mu      sync.Mutex
		pending []pendingJob
		sent    = make(chan struct{})
		sender  chamdLog
		watcher = chamdLog{engines: map[string]int{}}
		wg      sync.WaitGroup
	)
	start := time.Now()
	c0 := cpuTime()
	wg.Add(1)
	go func() {
		defer wg.Done()
		watch(ctx, c, srv, start, &mu, &pending, sent, book, &watcher)
	}()

	for _, ev := range in.events {
		if d := time.Until(start.Add(ev.due)); d > 0 {
			time.Sleep(d)
		}
		sender.lateMS = append(sender.lateMS, float64(lateness(start, ev.due, time.Now()))/1e6)
		switch ev.kind {
		case "hit":
			sendHit(ctx, c, start, ev, in.warm[in.hits[ev.idx]], warmHash[in.hits[ev.idx]], book, &sender)
		case "job", "dse":
			var spec server.JobSpec
			if ev.kind == "job" {
				spec = in.jobs[ev.idx]
			} else {
				spec = in.sweeps[ev.idx]
				t0 := time.Now()
				d, err := spec.DSE.Normalize()
				if err == nil {
					_, err = d.Expand()
				}
				if sender.op(err) {
					sender.expandUS = append(sender.expandUS, float64(time.Since(t0))/1e3)
				}
			}
			st, err := c.Submit(ctx, spec)
			if !sender.op(err) {
				continue
			}
			if st.Cached {
				sender.op(fmt.Errorf("%s job %s was served from cache; the schedule must keep it uncached", ev.kind, st.ID))
				continue
			}
			mu.Lock()
			pending = append(pending, pendingJob{id: st.ID, kind: ev.kind, due: ev.due})
			mu.Unlock()
		}
	}
	close(sent)
	wg.Wait()
	wall := time.Since(start)
	cpu := cpuTime() - c0

	s, w := &sender, &watcher
	for _, err := range append(s.errs, w.errs...) {
		rep.fail(err)
	}
	rep.attempted += s.attempted + w.attempted
	m := srv.Metrics()

	engines := make([]string, 0, len(w.engines))
	for e, n := range w.engines {
		engines = append(engines, fmt.Sprintf("%s x%d", e, n))
	}
	sort.Strings(engines)
	rep.stampf("chamd jobs: engines %v, effective threads per job %v", engines, distinct(w.threads))
	rep.stampf("offered load: %.1f sim jobs/s, %.1f cached resubmits/s, one DSE sweep every %s, over %s",
		jobRate, hitRate, dsePeriod, window)
	tail := func(name string, xs []float64) {
		if p := tailPercentile(len(xs), tailCandidates, 10); p > 0 {
			rep.stampf("%s: n=%d, p50 %.3f ms, tail p%g %.3f ms", name, len(xs), median(xs), p, percentile(xs, p))
		} else {
			rep.stampf("%s: n=%d, p50 %.3f ms, too few samples for a tail", name, len(xs), median(xs))
		}
	}
	tail("uncached job latency", w.jobLat)
	tail("cached resubmit latency", s.hitLat)
	tail("generator lateness", s.lateMS)
	if !supported(len(w.jobLat), 90) {
		rep.stampf("job_p90_ms rests on %d samples, fewer than ten beyond it", len(w.jobLat))
	}
	if !supported(len(s.hitLat), 99) {
		rep.stampf("hit_p99_ms rests on %d samples, fewer than ten beyond it", len(s.hitLat))
	}

	if w.simRunS > 0 {
		rep.set("sim_mips", w.simInstr/w.simRunS/1e6, len(w.runMS))
	}
	rep.set("job_p50_ms", median(w.jobLat), len(w.jobLat))
	if !traced {
		return
	}
	rep.set("job_p90_ms", percentile(w.jobLat, 90), len(w.jobLat))
	rep.set("hit_p50_ms", median(s.hitLat), len(s.hitLat))
	rep.set("hit_p99_ms", percentile(s.hitLat, 99), len(s.hitLat))
	rep.set("dse_sweep_s", median(w.sweepLat)/1e3, len(w.sweepLat))
	rep.set("server.submit_ms", median(s.submitMS), len(s.submitMS))
	rep.set("server.result_ms", median(s.resultMS), len(s.resultMS))
	rep.set("server.result_kb", median(s.kb), len(s.kb))
	rep.set("server.queue_wait_ms", median(w.queueMS), len(w.queueMS))
	rep.set("server.run_ms", median(w.runMS), len(w.runMS))
	rep.set("server.notify_lag_ms", median(w.notifyMS), len(w.notifyMS))
	rep.set("server.cache_hit_share", m.CacheHitRate(), int(m.CacheHits.Value()+m.CacheMisses.Value()))
	rep.set("sim.job_threads", median(w.threads), len(w.threads))
	rep.set("sim.job_cpu_per_wall", cpu.Seconds()/wall.Seconds(), 1)
	rep.set("dse.cells", float64(w.cells), len(w.sweepLat))
	rep.set("dse.cells_cached", float64(w.cached), len(w.sweepLat))
	rep.set("dse.cells_pruned", float64(w.pruned), len(w.sweepLat))
	rep.set("dse.expand_us", median(s.expandUS), len(s.expandUS))
	rep.set("dse.front_us", median(w.frontUS), len(w.frontUS))
	rep.set("gen.late_ms", sum(s.lateMS)/float64(max(len(s.lateMS), 1)), len(s.lateMS))
}

// sendHit resubmits a completed spec and fetches its cached result.
func sendHit(ctx context.Context, c *server.Client, start time.Time, ev event, spec server.JobSpec, hash string, book *resultBook, l *chamdLog) {
	t0 := time.Now()
	st, err := c.Submit(ctx, spec)
	t1 := time.Now()
	if !l.op(err) {
		return
	}
	if st.State != server.StateDone || !st.Cached || st.Hash != hash {
		l.op(fmt.Errorf("resubmit %s: state %s cached=%v hash %.12s, want a cache hit on %.12s", st.ID, st.State, st.Cached, st.Hash, hash))
		return
	}
	var raw json.RawMessage
	err = c.Result(ctx, st.ID, &raw)
	t2 := time.Now()
	if !l.op(err) {
		return
	}
	if !l.op(book.check(st.Hash, raw)) {
		return
	}
	l.hitLat = append(l.hitLat, float64(latencyFromDue(start, ev.due, t2))/1e6)
	l.submitMS = append(l.submitMS, float64(t1.Sub(t0))/1e6)
	l.resultMS = append(l.resultMS, float64(t2.Sub(t1))/1e6)
	l.kb = append(l.kb, float64(len(raw))/1024)
}

// watch polls the oldest pending jobs until the sender has finished
// and every job it accepted has been collected.
func watch(ctx context.Context, c *server.Client, srv *server.Server, start time.Time, mu *sync.Mutex, pending *[]pendingJob, sent <-chan struct{}, book *resultBook, l *chamdLog) {
	senderDone := false
	var drainBy time.Time
	for {
		mu.Lock()
		head := append([]pendingJob(nil), (*pending)[:min(pollHead, len(*pending))]...)
		mu.Unlock()
		if len(head) == 0 && senderDone {
			return
		}
		if senderDone && time.Now().After(drainBy) {
			mu.Lock()
			n := len(*pending)
			mu.Unlock()
			l.op(fmt.Errorf("%d jobs still unfinished %s after the window", n, drainTimeout))
			return
		}
		for _, p := range head {
			st, err := c.Status(ctx, p.id)
			if err == nil && !st.State.Terminal() {
				continue
			}
			seen := time.Now()
			mu.Lock()
			for i, q := range *pending {
				if q.id == p.id {
					*pending = append((*pending)[:i], (*pending)[i+1:]...)
					break
				}
			}
			mu.Unlock()
			if !l.op(err) {
				continue
			}
			collect(ctx, c, srv, start, p, st, seen, book, l)
		}
		select {
		case <-sent:
			if !senderDone {
				senderDone = true
				drainBy = time.Now().Add(drainTimeout)
			}
		default:
		}
		time.Sleep(pollEvery)
	}
}

// collect fetches and checks a finished job's result and records its
// latency and server-side timestamps.
func collect(ctx context.Context, c *server.Client, srv *server.Server, start time.Time, p pendingJob, st server.JobStatus, seen time.Time, book *resultBook, l *chamdLog) {
	if st.State != server.StateDone {
		l.op(fmt.Errorf("%s job %s ended %s: %s", p.kind, p.id, st.State, st.Error))
		return
	}
	threads := float64(srv.Metrics().SimThreadsEffective.Value())
	var raw json.RawMessage
	err := c.Result(ctx, p.id, &raw)
	if !l.op(err) {
		return
	}
	if !l.op(book.check(st.Hash, raw)) {
		return
	}
	switch p.kind {
	case "job":
		var r sim.Result
		if !l.op(json.Unmarshal(raw, &r)) {
			return
		}
		done := time.Now()
		l.jobLat = append(l.jobLat, float64(latencyFromDue(start, p.due, done))/1e6)
		l.threads = append(l.threads, threads)
		l.engines[r.Engine+r.FallbackReason]++
		if st.StartedAt != nil && st.FinishedAt != nil {
			run := st.FinishedAt.Sub(*st.StartedAt)
			l.queueMS = append(l.queueMS, float64(st.StartedAt.Sub(st.SubmittedAt))/1e6)
			l.runMS = append(l.runMS, float64(run)/1e6)
			l.notifyMS = append(l.notifyMS, float64(seen.Sub(*st.FinishedAt))/1e6)
			l.simRunS += run.Seconds()
			l.simInstr += simulated(&r, chamdWarmup)
		}
	case "dse":
		var r dse.Result
		if !l.op(json.Unmarshal(raw, &r)) {
			return
		}
		done := time.Now()
		l.sweepLat = append(l.sweepLat, float64(latencyFromDue(start, p.due, done))/1e6)
		l.cells += st.Progress.TotalCells
		l.cached += st.Progress.CachedCells
		l.pruned += st.Progress.PrunedCells
		t0 := time.Now()
		front, _ := dse.Front(r.Points, r.Objectives)
		l.frontUS = append(l.frontUS, float64(time.Since(t0))/1e3)
		switch {
		case len(r.Front) == 0:
			l.op(errors.New("DSE sweep returned an empty front"))
		case !sameFront(front, r.Front):
			l.op(errors.New("DSE front differs from the front recomputed from its points"))
		}
	}
}

func sameFront(a, b []dse.Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Cell.Index != b[i].Cell.Index {
			return false
		}
	}
	return true
}

// distinct returns the sorted distinct values of xs.
func distinct(xs []float64) []float64 {
	seen := map[float64]bool{}
	var out []float64
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	sort.Float64s(out)
	return out
}
