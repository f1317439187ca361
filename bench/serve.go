package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
)

const (
	// setupRuns is how many cold servers each serve run starts; setup_s is
	// their median.
	setupRuns = 7
	// tracedRequests is each client's request count in one window of the
	// traced run. A fixed count keeps the traced work the same on every
	// commit, and bounds the spans the server's ring must hold.
	tracedRequests = 1000
	// traceRing holds every span of one traced window: at most 26 per
	// request (one http.request, three per statement, one client.request)
	// plus the environment build.
	traceRing = 1 << 16
	// warmupRequests is each client's request count between set-up and the
	// timed window. heap_mb is read after it, at the same point of the
	// request sequence on every commit: the simulated models memoize per
	// SQL text without bound, so under serve-unique the heap grows with
	// every request served, and a reading after the timed window would
	// grow with throughput.
	warmupRequests = 500
)

// Streams number the independent request sequences of one process, so
// that serve-unique never sends the same text twice, even to a new server.
const (
	streamWindow = iota
	streamProbe
	streamWarmup
	streamTraced // first of three per traced repetition
)

// target is one server under test behind a real loopback listener, with
// the count of result lines its clients have received.
type target struct {
	ts     *httptest.Server
	client *http.Client
	lines  atomic.Int64
}

// startTarget builds a server at the binaries' defaults except for the
// seed, the worker budget and the trace ring (0 keeps the default).
func startTarget(seed int64, ring int) *target {
	srv := serve.NewServer(serve.Config{DefaultSeed: seed, Parallel: workers, TraceRing: ring})
	ts := httptest.NewServer(srv.Handler())
	return &target{ts: ts, client: ts.Client()}
}

func (t *target) close() { t.ts.Close() }

// evalLine holds the fields of an NDJSON result line the checks read.
type evalLine struct {
	Index  int    `json:"index"`
	Task   string `json:"task"`
	SQL    string `json:"sql"`
	SQL2   string `json:"sql2"`
	Failed bool   `json:"failed"`
	Error  string `json:"error"`
}

// checkEval verifies one eval response: status 200, one line per
// statement sent, indexes 0..n-1 in order, each line echoing its task and
// statement(s), and no failed or error line.
func checkEval(status int, body []byte, req request) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", req.task, status, body)
	}
	lines := bytes.Split(bytes.TrimSuffix(body, []byte("\n")), []byte("\n"))
	if len(lines) != len(req.sql) {
		return fmt.Errorf("%s: %d lines for %d statements", req.task, len(lines), len(req.sql))
	}
	for i, raw := range lines {
		var l evalLine
		if err := json.Unmarshal(raw, &l); err != nil {
			return fmt.Errorf("%s: line %d: %v", req.task, i, err)
		}
		want := req.sql[i]
		switch {
		case l.Failed || l.Error != "":
			return fmt.Errorf("%s: line %d failed: %s", req.task, i, l.Error)
		case l.Index != i:
			return fmt.Errorf("%s: line %d has index %d", req.task, i, l.Index)
		case l.Task != req.task:
			return fmt.Errorf("%s: line %d has task %q", req.task, i, l.Task)
		case l.SQL != want[0] || (len(want) > 1 && l.SQL2 != want[1]):
			return fmt.Errorf("%s: line %d echoes another statement", req.task, i)
		}
	}
	return nil
}

// eval sends one request and reads the whole response. It returns the time
// to the response headers and to the last byte. When ctx carries a tracer
// the exchange is a client.request span whose trace id rides X-Request-Id,
// so the server roots its spans in the same trace.
func (t *target) eval(ctx context.Context, req request) (ttfb, total time.Duration, err error) {
	body, err := req.body()
	if err != nil {
		return 0, 0, err
	}
	ctx, sp := startSpan(ctx, "client.request")
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, t.ts.URL+"/v1/eval/"+req.task, bytes.NewReader(body))
	if err != nil {
		sp.End()
		return 0, 0, err
	}
	if id := sp.TraceID(); id != "" {
		hr.Header.Set("X-Request-Id", id)
	}
	start := time.Now()
	resp, err := t.client.Do(hr)
	if err != nil {
		sp.End()
		return 0, 0, err
	}
	ttfb = time.Since(start)
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	total = time.Since(start)
	sp.End()
	if err != nil {
		return 0, 0, err
	}
	if resp.StatusCode == http.StatusOK {
		t.lines.Add(int64(bytes.Count(data, []byte("\n"))))
	}
	return ttfb, total, checkEval(resp.StatusCode, data, req)
}

// get fetches a GET endpoint's body, failing on any status but 200.
func (t *target) get(path string) ([]byte, error) {
	resp, err := t.client.Get(t.ts.URL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return data, nil
}

// checkStreamed compares the server's results_streamed counter with the
// result lines its clients received.
func (t *target) checkStreamed() error {
	data, err := t.get("/v1/metrics")
	if err != nil {
		return err
	}
	var m struct {
		ResultsStreamed int64 `json:"results_streamed"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	if lines := t.lines.Load(); m.ResultsStreamed != lines {
		return fmt.Errorf("results_streamed %d, clients received %d lines", m.ResultsStreamed, lines)
	}
	return nil
}

// coldStart times a new server from construction to its first 200 eval
// response, which includes building its environment.
func coldStart(ctx context.Context, seed int64, ring int, probes *gen) (*target, time.Duration, error) {
	ctx, sp := startSpan(ctx, "bench.setup")
	t0 := time.Now()
	t := startTarget(seed, ring)
	_, _, err := t.eval(ctx, probes.probe())
	d := time.Since(t0)
	sp.EndErr(err)
	if err != nil {
		t.close()
		return nil, 0, fmt.Errorf("first eval on a cold server: %w", err)
	}
	return t, d, nil
}

// loopStats is what a closed loop measured.
type loopStats struct {
	latMS, ttfbMS             []float64
	requests, failed, results int
	wall                      time.Duration
	firstErr                  error
}

func (s *loopStats) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// check counts one checked operation, failed when err is set.
func (s *loopStats) check(err error) {
	s.requests++
	if err != nil {
		s.fail(err)
	}
}

// sender sends one request and returns the time to its first byte and to
// its last: target.eval over HTTP, or direct through the task registry.
type sender func(ctx context.Context, req request) (ttfb, total time.Duration, err error)

// closedLoop runs one client per generator, each sending its next request
// only after the previous one has completed, until d has passed
// (perClient == 0) or each client has sent perClient requests.
func closedLoop(ctx context.Context, send sender, gens []*gen, d time.Duration, perClient int) loopStats {
	parts := make([]loopStats, len(gens))
	start := time.Now()
	var wg sync.WaitGroup
	for c := range gens {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			st := &parts[c]
			for n := 0; ; n++ {
				if (perClient > 0 && n >= perClient) || (perClient == 0 && time.Since(start) >= d) {
					return
				}
				req := gens[c].request()
				ttfb, lat, err := send(ctx, req)
				st.requests++
				if err != nil {
					st.fail(err)
					continue
				}
				st.results += len(req.sql)
				st.latMS = append(st.latMS, float64(lat)/float64(time.Millisecond))
				st.ttfbMS = append(st.ttfbMS, float64(ttfb)/float64(time.Millisecond))
			}
		}(c)
	}
	wg.Wait()
	out := loopStats{wall: time.Since(start)}
	for _, p := range parts {
		out.merge(p)
	}
	return out
}

// merge adds another loop's samples and counts to s.
func (s *loopStats) merge(o loopStats) {
	s.latMS = append(s.latMS, o.latMS...)
	s.ttfbMS = append(s.ttfbMS, o.ttfbMS...)
	s.requests += o.requests
	s.results += o.results
	s.failed += o.failed
	if s.firstErr == nil {
		s.firstErr = o.firstErr
	}
}

// gens returns one generator per client for a stream.
func gens(p *pool, seed int64, stream int, unique bool) []*gen {
	out := make([]*gen, workers)
	for c := range out {
		out[c] = newGen(p, seed, stream, c, unique)
	}
	return out
}

// uniqueSeeds is how many consecutive seeds' benchmarks serve-unique
// draws its base statements from. Without repeats every statement pays
// the models' full cost, so one seed's few thousand statements would set
// the run's mean and tail cost; four seeds average that draw out.
const uniqueSeeds = 4

// newServePool builds the seed's benchmark as the server does (unverified)
// and collects the request inputs from its cells — for serve-unique, from
// the cells of uniqueSeeds consecutive seeds.
func newServePool(seed int64, unique bool) (*core.Benchmark, *pool, error) {
	n := 1
	if unique {
		n = uniqueSeeds
	}
	bs := make([]*core.Benchmark, n)
	for i := range bs {
		b, err := core.Build(core.BuildConfig{Seed: seed + int64(i)})
		if err != nil {
			return nil, nil, err
		}
		bs[i] = b
	}
	p, err := newPool(unique, bs...)
	return bs[0], p, err
}

// slice is the stretch of closed-loop traffic between two speed readings.
const slice = time.Second

// runServe starts setupRuns cold servers, warms the last one up, then
// drives it with a closed loop for d and reports the end-to-end metrics.
// Each cold start and each slice of the loop is scaled by the machine's
// speed read before and after it; between slices client traffic pauses
// while the speed is read and /v1/metrics/prom is scraped.
func runServe(seed int64, d time.Duration, unique bool) (*outcome, error) {
	_, p, err := newServePool(seed, unique)
	if err != nil {
		return nil, err
	}
	probes := newGen(p, seed, streamProbe, 0, unique)
	var setup, speeds []float64
	var t *target
	s0 := speed()
	for i := 0; i < setupRuns; i++ {
		if t != nil {
			t.close()
		}
		var took time.Duration
		t, took, err = coldStart(context.Background(), seed, 0, probes)
		if err != nil {
			return nil, err
		}
		s1 := speed()
		setup = append(setup, took.Seconds()*(s0+s1)/2)
		s0 = s1
	}
	defer t.close()
	out := &outcome{attempted: setupRuns}
	out.add(closedLoop(context.Background(), t.eval, gens(p, seed, streamWarmup, unique), 0, warmupRequests))
	heap := heapMB()

	var win loopStats // the window's raw samples
	var lat []float64
	var scaled float64 // the window's seconds at nominal speed
	clients := gens(p, seed, streamWindow, unique)
	s0 = speed()
	for start := time.Now(); time.Since(start) < d; {
		st := closedLoop(context.Background(), t.eval, clients, slice, 0)
		_, err := t.get("/v1/metrics/prom")
		st.check(err)
		s1 := speed()
		k := (s0 + s1) / 2
		s0 = s1
		for _, ms := range st.latMS {
			lat = append(lat, ms*k)
		}
		scaled += st.wall.Seconds() * k
		speeds = append(speeds, k)
		win.merge(st)
		win.wall += st.wall
	}
	win.check(t.checkStreamed())
	out.add(win)

	out.metrics = latencyRows(lat)
	out.metrics = append(out.metrics,
		sampleRow("setup_s", "s", setup),
		sampleRow("examples_per_s", "1/s", []float64{float64(win.results) / scaled}),
		sampleRow("heap_mb", "MB", []float64{heap}),
	)
	out.info = []row{
		sampleRow("speed", "ratio", speeds),
		sampleRow("raw.latency_ms", "ms", win.latMS),
		sampleRow("raw.ttfb_ms", "ms", win.ttfbMS),
		sampleRow("raw.examples_per_s", "1/s", []float64{float64(win.results) / win.wall.Seconds()}),
		sampleRow("pool.distinct_inputs", "count", []float64{float64(p.distinct())}),
		sampleRow("pool.literal_share", "share", []float64{p.literalShare}),
	}
	return out, nil
}

// runServeTraced repeats, until d has passed, three windows of the same
// fixed request count: untraced, traced (the server retaining every span
// in its ring, the clients recording client.request spans), and direct
// (the same requests through core.Task.RunStreamOpts, no HTTP). It reports
// the per-layer metrics as medians over the repetitions.
func runServeTraced(seed int64, d time.Duration, unique bool, name, traceDir string) (*outcome, error) {
	b, p, err := newServePool(seed, unique)
	if err != nil {
		return nil, err
	}
	share := distinctShare(p, seed, unique)
	probes := newGen(p, seed, streamProbe, 0, unique)
	out := &outcome{}
	s := samples{}
	var last []obs.SpanRecord
	s0 := speed()
	start := time.Now()
	for rep := 0; rep == 0 || time.Since(start) < d; rep++ {
		stream := streamTraced + 3*rep
		var m [3]runtime.MemStats
		runtime.ReadMemStats(&m[0])
		u, took, err := coldStart(context.Background(), seed, 0, probes)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&m[1])
		us := closedLoop(context.Background(), u.eval, gens(p, seed, stream, unique), 0, tracedRequests)
		runtime.ReadMemStats(&m[2])
		us.check(u.checkStreamed())
		u.close()
		s1 := speed()

		tracer := obs.New(obs.WithCollector())
		ctx := obs.With(context.Background(), tracer)
		timedGenerate(ctx, seed)
		tt, _, err := coldStart(ctx, seed, traceRing, probes)
		if err != nil {
			return nil, err
		}
		ts := closedLoop(ctx, tt.eval, gens(p, seed, stream+1, unique), 0, tracedRequests)
		spans, err := serverSpans(tt)
		ts.check(err)
		ts.check(tt.checkStreamed())
		tt.close()
		s2 := speed()

		ds := directLoop(seed, gens(p, seed, stream+2, unique), tracedRequests)
		s3 := speed()
		ku, kt, kd := (s0+s1)/2, (s1+s2)/2, (s2+s3)/2
		s0 = s3
		out.attempted += 2 // the two cold starts' first evals
		out.add(us)
		out.add(ts)
		out.add(ds)

		last = graft(append(spans, tracer.Collected()...), "run")
		out.layers = fold(last)
		s.addLayers(out.layers, kt)
		s.add("engine.ops", "count", float64(engineOps(b)))
		s.add("sql.distinct_share", "share", share)
		s.add("alloc.setup_mb", "MB", float64(m[1].TotalAlloc-m[0].TotalAlloc)/(1<<20))
		s.add("alloc.kb_per_example", "KB", float64(m[2].TotalAlloc-m[1].TotalAlloc)/1024/float64(us.results))
		s.add("gc.cycles", "count", float64(m[2].NumGC-m[1].NumGC))
		s.add("trace.overhead", "ratio", ts.wall.Seconds()*kt/(us.wall.Seconds()*ku)-1)
		s.add("serve.setup_s", "s", took.Seconds()*ku)
		s.add("serve.ttfb_p50_ms", "ms", summarize(us.ttfbMS).Median*ku)
		s.add("serve.eval_p50_ms", "ms", summarize(us.latMS).Median*ku)
		s.add("serve.direct_p50_ms", "ms", summarize(ds.latMS).Median*kd)
		s.add("serve.results_streamed", "count", float64(ts.results))
	}
	out.metrics, out.info = s.rows()
	if traceDir != "" {
		if err := writeTrace(traceDir, name, last, out.layers); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// serverSpans fetches the server's span ring and fails if the ring lost
// any span.
func serverSpans(t *target) ([]obs.SpanRecord, error) {
	data, err := t.get("/v1/trace")
	if err != nil {
		return nil, err
	}
	var snap serve.TraceSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("decoding /v1/trace: %w", err)
	}
	if snap.Evicted > 0 {
		return nil, fmt.Errorf("trace ring evicted %d spans", snap.Evicted)
	}
	return snap.Spans, nil
}

// directLoop sends the requests of gens straight through the task registry
// on an environment configured as the server's, perClient per generator.
func directLoop(seed int64, gens []*gen, perClient int) loopStats {
	env, err := experiments.NewEnvConfig(experiments.Config{Seed: seed, Parallel: workers})
	if err != nil {
		return loopStats{requests: 1, failed: 1, firstErr: err}
	}
	defer env.Close()
	send := func(ctx context.Context, req request) (time.Duration, time.Duration, error) {
		t := time.Now()
		err := direct(ctx, env, req)
		d := time.Since(t)
		return d, d, err
	}
	return closedLoop(runner.WithParallelism(context.Background(), workers), send, gens, 0, perClient)
}

// direct evaluates one request through the task registry, checking that
// every statement yields one graded, unfailed result in order.
func direct(ctx context.Context, env *experiments.Env, req request) error {
	task, ok := core.TaskByID(req.task)
	if !ok {
		return fmt.Errorf("unknown task %q", req.task)
	}
	client, err := env.Registry.Get(req.model)
	if err != nil {
		return err
	}
	examples := make([]core.Example, len(req.sql))
	for i, sql := range req.sql {
		if examples[i], err = task.AdHoc(fmt.Sprintf("adhoc/%d", i), sql); err != nil {
			return err
		}
	}
	n := 0
	err = task.RunStreamOpts(ctx, client, examples, core.RunOpts{}, func(idx int, r any, err error) error {
		if err != nil {
			return err
		}
		if v := task.View(r, false); idx != n || v.Err != "" || v.SQL != req.sql[idx][0] {
			return fmt.Errorf("%s: result %d out of order or failed", req.task, idx)
		}
		n++
		return nil
	})
	if err == nil && n != len(req.sql) {
		err = fmt.Errorf("%s: %d results for %d statements", req.task, n, len(req.sql))
	}
	return err
}

// distinctShare is the share of distinct texts among the statements of
// the first 5,000 requests per client of the window stream.
func distinctShare(p *pool, seed int64, unique bool) float64 {
	seen := make(map[string]bool)
	total := 0
	for _, g := range gens(p, seed, streamWindow, unique) {
		for i := 0; i < 5000; i++ {
			for _, sql := range g.request().sql {
				seen[strings.Join(sql, "\x00")] = true
				total++
			}
		}
	}
	return float64(len(seen)) / float64(total)
}
