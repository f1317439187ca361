package main

import (
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/workload"
	"repro/internal/workload/joborder"
	"repro/internal/workload/sdss"
	"repro/internal/workload/spider"
	"repro/internal/workload/sqlshare"
)

// warmPasses is how many times each untraced iteration re-renders all
// artifacts from the environment's memoized cells. The traced iteration
// renders once: ext-fewshot calls the models again on every render, so
// more passes would swell the model layer past a cold run's share.
const warmPasses = 10

// paperIter is one iteration of the paper workload: a fresh environment,
// every experiment rendered cold, then warm re-renders of all.
type paperIter struct {
	env                  *experiments.Env
	setup, regen, render time.Duration
	warmMS               []float64 // per render, every warm pass
	digests              [][sha256.Size]byte
	runs, failed         int
	firstErr             error
	// examples is the graded-example count of the task×model×dataset grid
	// the cold regeneration computes.
	examples int
	// Bytes allocated and GC cycles run in each phase.
	allocSetup, allocRegen, allocRender uint64
	gcCycles                            uint32
}

// wall is the iteration's timed work.
func (it *paperIter) wall() time.Duration { return it.setup + it.regen + it.render }

// paperIteration runs one iteration. ctx carries the tracer in traced mode
// (and the benchmark's own spans then wrap each call into the program).
// It renders every artifact warm passes times after the cold pass. golden
// holds the digests of an earlier iteration to compare against, or nil;
// every warm render is compared with this iteration's cold one.
func paperIteration(ctx context.Context, seed int64, parallel, passes int, golden [][sha256.Size]byte) (*paperIter, error) {
	tracer := obs.TracerFrom(ctx)
	if tracer != nil {
		timedGenerate(ctx, seed)
	}
	exps := experiments.All()
	it := &paperIter{}
	var ms [4]runtime.MemStats
	runtime.ReadMemStats(&ms[0])

	_, sp := startSpan(ctx, "bench.setup")
	t0 := time.Now()
	env, err := experiments.NewEnvConfig(experiments.Config{
		Seed:               seed,
		VerifyEquivalences: true,
		Parallel:           parallel,
		Tracer:             tracer,
	})
	it.setup = time.Since(t0)
	sp.EndErr(err)
	if err != nil {
		return nil, err
	}
	it.env = env
	runtime.ReadMemStats(&ms[1])

	fail := func(err error) {
		it.failed++
		if it.firstErr == nil {
			it.firstErr = err
		}
	}
	render := func(phase string, e experiments.Experiment) ([sha256.Size]byte, float64) {
		_, sp := startSpan(ctx, "experiments."+phase+"."+e.ID)
		h := sha256.New()
		t := time.Now()
		err := e.Run(env, h)
		d := time.Since(t)
		sp.EndErr(err)
		it.runs++
		var sum [sha256.Size]byte
		if err != nil {
			fail(fmt.Errorf("%s %s: %w", phase, e.ID, err))
			return sum, 0
		}
		copy(sum[:], h.Sum(nil))
		return sum, float64(d) / float64(time.Millisecond)
	}

	t1 := time.Now()
	for i, e := range exps {
		sum, _ := render("cold", e)
		it.digests = append(it.digests, sum)
		if golden != nil && golden[i] != sum {
			fail(fmt.Errorf("cold %s: artifact differs from the first iteration's", e.ID))
		}
	}
	it.regen = time.Since(t1)
	runtime.ReadMemStats(&ms[2])

	t2 := time.Now()
	for pass := 0; pass < passes; pass++ {
		for i, e := range exps {
			sum, d := render("warm", e)
			it.warmMS = append(it.warmMS, d)
			if sum != it.digests[i] {
				fail(fmt.Errorf("warm %s: artifact differs from the cold render", e.ID))
			}
		}
	}
	it.render = time.Since(t2)
	runtime.ReadMemStats(&ms[3])

	it.allocSetup = ms[1].TotalAlloc - ms[0].TotalAlloc
	it.allocRegen = ms[2].TotalAlloc - ms[1].TotalAlloc
	it.allocRender = ms[3].TotalAlloc - ms[2].TotalAlloc
	it.gcCycles = ms[3].NumGC - ms[0].NumGC
	for _, task := range core.Tasks() {
		for _, ds := range task.Datasets() {
			cell, _ := task.Cell(env.Bench, ds)
			it.examples += len(cell) * len(env.Models)
		}
	}
	return it, nil
}

// addIter counts an iteration's renders and failures.
func (o *outcome) addIter(it *paperIter) {
	o.add(loopStats{requests: it.runs, failed: it.failed, firstErr: it.firstErr})
}

// timedGenerate calls the four workload generators, each under a
// workload.generate span. The build calls them again internally; these
// calls exist only to time the generators on their own.
func timedGenerate(ctx context.Context, seed int64) {
	for _, g := range []func(int64) *workload.Workload{sdss.Generate, sqlshare.Generate, joborder.Generate, spider.Generate} {
		_, sp := startSpan(ctx, "workload.generate")
		g(seed)
		sp.End()
	}
}

// runPaper repeats iterations at the default worker budget until d has
// passed and reports the end-to-end metrics, each iteration's times scaled
// by the machine's speed read before and after it.
func runPaper(seed int64, d time.Duration) (*outcome, error) {
	out := &outcome{}
	var setup, rate, warm, speeds, regen, render []float64
	var golden [][sha256.Size]byte
	var last *paperIter
	s0 := speed()
	start := time.Now()
	for len(setup) == 0 || time.Since(start) < d {
		if last != nil {
			last.env.Close()
			last = nil
		}
		it, err := paperIteration(context.Background(), seed, workers, warmPasses, golden)
		if err != nil {
			return nil, err
		}
		s1 := speed()
		k := (s0 + s1) / 2
		s0 = s1
		if golden == nil {
			golden = it.digests
		}
		out.addIter(it)
		setup = append(setup, it.setup.Seconds()*k)
		rate = append(rate, float64(it.examples)/it.regen.Seconds()/k)
		for _, ms := range it.warmMS {
			warm = append(warm, ms*k)
		}
		speeds = append(speeds, k)
		regen = append(regen, it.regen.Seconds())
		render = append(render, float64(it.render)/float64(time.Millisecond)/warmPasses)
		last = it
	}
	heap := heapMB()
	last.env.Close()

	out.metrics = latencyRows(warm)
	out.metrics = append(out.metrics,
		sampleRow("setup_s", "s", setup),
		sampleRow("examples_per_s", "1/s", rate),
		sampleRow("heap_mb", "MB", []float64{heap}),
	)
	out.info = []row{
		sampleRow("speed", "ratio", speeds),
		sampleRow("raw.regen_s", "s", regen),
		sampleRow("raw.render_ms", "ms", render),
		sampleRow("grid_examples", "count", []float64{float64(last.examples)}),
	}
	return out, nil
}

// runPaperTraced alternates untraced and traced iterations at Parallel 1 —
// so self times add up to the wall time — until d has passed, and reports
// the per-layer metrics as medians over the traced iterations.
func runPaperTraced(seed int64, d time.Duration, traceDir string) (*outcome, error) {
	out := &outcome{}
	var golden [][sha256.Size]byte
	s := samples{}
	var last []obs.SpanRecord
	s0 := speed()
	start := time.Now()
	for len(last) == 0 || time.Since(start) < d {
		u, err := paperIteration(context.Background(), seed, 1, 1, golden)
		if err != nil {
			return nil, err
		}
		u.env.Close()
		if golden == nil {
			golden = u.digests
		}
		s1 := speed()
		tracer := obs.New(obs.WithCollector())
		t, err := paperIteration(obs.With(context.Background(), tracer), seed, 1, 1, golden)
		if err != nil {
			return nil, err
		}
		t.env.Close() // ends the environment's root span
		s2 := speed()
		ku, kt := (s0+s1)/2, (s1+s2)/2
		s0 = s2
		out.addIter(u)
		out.addIter(t)

		last = graft(tracer.Collected(), "run")
		out.layers = fold(last)
		s.addLayers(out.layers, kt)
		s.add("engine.ops", "count", float64(engineOps(t.env.Bench)))
		s.add("sql.distinct_share", "share", float64(distinctGridTexts(t.env.Bench))/float64(layerOf(out.layers, "llm.request").Count))
		s.add("alloc.setup_mb", "MB", float64(u.allocSetup)/(1<<20))
		s.add("alloc.regen_mb", "MB", float64(u.allocRegen)/(1<<20))
		s.add("alloc.render_mb", "MB", float64(u.allocRender)/(1<<20))
		s.add("alloc.kb_per_example", "KB", float64(u.allocRegen)/1024/float64(u.examples))
		s.add("gc.cycles", "count", float64(u.gcCycles))
		s.add("trace.overhead", "ratio", t.wall().Seconds()*kt/(u.wall().Seconds()*ku)-1)
	}
	out.metrics, out.info = s.rows()
	if traceDir != "" {
		if err := writeTrace(traceDir, "paper", last, out.layers); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// engineOps sums the engine row operations the build's equivalence
// verification executed.
func engineOps(b *core.Benchmark) int64 {
	var ops int64
	for _, n := range b.EngineOps {
		ops += n
	}
	return ops
}

// distinctGridTexts counts the distinct example inputs across every cell of
// the task×dataset grid: the texts the simulated models are asked about.
func distinctGridTexts(b *core.Benchmark) int {
	seen := make(map[string]bool)
	for _, task := range core.Tasks() {
		for _, ds := range task.Datasets() {
			cell, _ := task.Cell(b, ds)
			for _, ex := range cell {
				seen[strings.Join(ex.SQL, "\x00")] = true
			}
		}
	}
	return len(seen)
}
