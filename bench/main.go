// Command bench is the repository's end-to-end benchmark. It drives the
// system from outside through its public entry points — experiments
// environments and the experiment registry, the benchmark build, the
// workload generators, the task registry, and the HTTP service behind a
// loopback listener — times those calls, and checks their outputs.
//
//	bash bench/run.sh --workload paper --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, and the metrics — the end-to-end set, or with
// --trace 1 the per-layer set folded from spans. See README.md for the
// workloads, the metrics and the comparison protocol.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// workers is the worker budget of every environment and server, the
// number of closed-loop clients, and GOMAXPROCS: the benchmark machine
// has two CPUs.
const workers = 2

var workloadNames = []string{"paper", "serve-shared", "serve-unique"}

// endToEnd lists the metrics printed without tracing, in order.
var endToEnd = []string{"setup_s", "examples_per_s", "latency_p50_ms", "latency_p99_ms", "heap_mb"}

// perLayer lists the metrics the traced run reports in its JSON line, in
// order. Every workload reports each one; the traced run prints more
// (per-experiment times, the HTTP layer) that only some workloads have.
var perLayer = []string{
	"workload.generate_ms", "bench.build_self_ms", "engine.ops", "engine.exec_calls",
	"prompt.render_ms", "llm.request_self_ms", "llm.requests", "llm.request_us",
	"task.example_self_ms", "sql.distinct_share", "alloc.setup_mb",
	"alloc.kb_per_example", "gc.cycles", "trace.overhead",
}

// row is one printed metric: a value with its unit and, for a median, the
// quartiles (NaN otherwise); n is the sample size and, for a tail
// percentile, beyond the samples above it (-1 otherwise).
type row struct {
	name, unit string
	value      float64
	q1, q3     float64
	n, beyond  int
}

// sampleRow reports a sample's median with its quartiles.
func sampleRow(name, unit string, xs []float64) row {
	s := summarize(xs)
	return row{name: name, unit: unit, value: s.Median, q1: s.Q1, q3: s.Q3, n: s.N, beyond: -1}
}

// latencyRows reports a latency sample's median and 99th percentile.
func latencyRows(ms []float64) []row {
	s := append([]float64(nil), ms...)
	sort.Float64s(s)
	p99 := quantile(s, 0.99)
	return []row{
		sampleRow("latency_p50_ms", "ms", s),
		{name: "latency_p99_ms", unit: "ms", value: p99.Value, q1: math.NaN(), q3: math.NaN(), n: p99.N, beyond: p99.Beyond},
	}
}

// series is one metric's values, one per repetition.
type series struct {
	unit string
	xs   []float64
}

// samples collects per-repetition values of named metrics.
type samples map[string]*series

func (s samples) add(name, unit string, v float64) {
	if s[name] == nil {
		s[name] = &series{unit: unit}
	}
	s[name].xs = append(s[name].xs, v)
}

// rows reports each metric's median: the perLayer ones for the JSON line,
// the rest, sorted by name, for printing only.
func (s samples) rows() (reported, info []row) {
	for _, name := range perLayer {
		if e := s[name]; e != nil {
			reported = append(reported, sampleRow(name, e.unit, e.xs))
		}
	}
	var names []string
	for name := range s {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if !contains(perLayer, name) {
			info = append(info, sampleRow(name, s[name].unit, s[name].xs))
		}
	}
	return reported, info
}

func contains(list []string, s string) bool {
	for _, x := range list {
		if x == s {
			return true
		}
	}
	return false
}

// outcome is what one workload run measured and checked.
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           []row   // reported in the JSON line
	info              []row   // printed only
	layers            []Layer // the last traced fold, printed only
}

// add counts a loop's operations and failures.
func (o *outcome) add(s loopStats) {
	o.attempted += s.requests
	o.failed += s.failed
	if o.firstErr == nil {
		o.firstErr = s.firstErr
	}
}

// heapMB collects garbage and returns the live heap, in MB: the bytes of
// the objects the caller still references. (HeapInuse would add span
// fragmentation, which moves by a megabyte between identical runs.)
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// startSpan starts one of the benchmark's own spans, marked so that graft
// can hang the program's spans beneath it. Without a tracer in ctx it is a
// no-op returning a nil span.
func startSpan(ctx context.Context, name string) (context.Context, *obs.Span) {
	ctx, sp := obs.Start(ctx, name)
	sp.SetString(ownerAttr, "bench")
	return ctx, sp
}

// writeTrace writes a traced run's spans in Chrome trace format and its
// fold as JSON.
func writeTrace(dir, workload string, recs []obs.SpanRecord, layers []Layer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, fn func(io.Writer) error) error {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if err := write(workload+".trace.json", func(w io.Writer) error { return obs.WriteChromeTrace(w, recs) }); err != nil {
		return err
	}
	return write(workload+".layers.json", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(layers)
	})
}

// runWorkload runs one workload, traced or not.
func runWorkload(name string, seed int64, d time.Duration, traced bool, traceDir string) (*outcome, error) {
	switch {
	case name == "paper" && traced:
		return runPaperTraced(seed, d, traceDir)
	case name == "paper":
		return runPaper(seed, d)
	case traced:
		return runServeTraced(seed, d, name == "serve-unique", name, traceDir)
	default:
		return runServe(seed, d, name == "serve-unique")
	}
}

// report prints the outcome's table and then its JSON line, and returns
// the exit code: 0 when every output checked out, 1 otherwise.
func report(w io.Writer, name string, o *outcome) int {
	fmt.Fprintf(w, "== %s\n", name)
	printRows := func(title string, rows []row) {
		if len(rows) == 0 {
			return
		}
		fmt.Fprintf(w, "%-34s %12s %12s %12s %7s %7s\n", title, "value", "q1", "q3", "n", "beyond")
		for _, r := range rows {
			fmt.Fprintf(w, "%-34s %12.5g %12s %12s %7d %7s\n", r.name+" ["+r.unit+"]", r.value,
				optional(r.q1), optional(r.q3), r.n, optionalInt(r.beyond))
		}
	}
	printRows("metric", o.metrics)
	printRows("detail", o.info)
	if len(o.layers) > 0 {
		fmt.Fprintf(w, "%-34s %7s %12s %12s %7s\n", "layer (last traced fold)", "count", "total_ms", "self_ms", "share")
		for _, l := range o.layers {
			fmt.Fprintf(w, "%-34s %7d %12.3f %12.3f %7.4f\n", l.Name, l.Count, l.TotalMS, l.SelfMS, l.Share)
		}
	}
	fmt.Fprintf(w, "attempted %d, failed %d\n", o.attempted, o.failed)
	if o.firstErr != nil {
		fmt.Fprintf(w, "first failure: %v\n", o.firstErr)
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metric{}}
	for _, r := range o.metrics {
		res.Metrics[r.name] = metric{r.value, r.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(w, "encoding result: %v\n", err)
		return 1
	}
	fmt.Fprintf(w, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

func optional(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.5g", v)
}

func optionalInt(v int) string {
	if v < 0 {
		return "-"
	}
	return fmt.Sprint(v)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the flags, runs the workloads and returns the exit code: 2
// for a usage or set-up error (with no result line), 1 when an output
// failed its check, 0 otherwise.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "paper, serve-shared, serve-unique, or all")
	seed := fs.Int64("seed", 1, "seed of the benchmark and of the request sequences")
	seconds := fs.Int("seconds", 30, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	traceDir := fs.String("trace-dir", "", "with -trace 1, write <workload>.trace.json and <workload>.layers.json here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	names := []string{*name}
	if *name == "all" {
		names = workloadNames
	}
	switch {
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "bench: unexpected arguments %v\n", fs.Args())
		return 2
	case !contains(workloadNames, names[0]):
		fmt.Fprintf(stderr, "bench: unknown workload %q (%v or all)\n", *name, workloadNames)
		return 2
	case *seconds < 1 || (*trace != 0 && *trace != 1):
		fmt.Fprintln(stderr, "bench: need -seconds >= 1 and -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(workers)
	code := 0
	for _, n := range names {
		o, err := runWorkload(n, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *traceDir)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 2
		}
		if c := report(stdout, n, o); c != 0 {
			code = c
		}
	}
	return code
}
