package main

import (
	"math"
	"testing"

	"repro/internal/obs"
)

func span(id, parent, name string, start, dur int64) obs.SpanRecord {
	return obs.SpanRecord{TraceID: "t", SpanID: id, ParentID: parent, Name: name, StartUS: start, DurUS: dur}
}

func benchSpan(id, trace, name string, start, dur int64) obs.SpanRecord {
	r := span(id, "", name, start, dur)
	r.TraceID = trace
	r.Attrs = map[string]any{ownerAttr: "bench"}
	return r
}

// TestFoldOverlappingChildren folds a tree whose two children overlap, as
// runner.Map's workers make them at Parallel > 1: the parent's self time
// subtracts the union of their intervals, not the sum.
func TestFoldOverlappingChildren(t *testing.T) {
	recs := []obs.SpanRecord{
		span("r", "", "root", 0, 100_000),
		span("a", "r", "child", 10_000, 40_000), // [10, 50) ms
		span("b", "r", "child", 30_000, 40_000), // [30, 70) ms
		span("g", "a", "leaf", 20_000, 10_000),  // [20, 30) ms
		span("x", "gone", "orphan", 0, 5_000),   // parent not exported: a root
	}
	layers := fold(recs)
	want := map[string]Layer{
		"root":   {Count: 1, TotalMS: 100, SelfMS: 40},
		"child":  {Count: 2, TotalMS: 80, SelfMS: 70},
		"leaf":   {Count: 1, TotalMS: 10, SelfMS: 10},
		"orphan": {Count: 1, TotalMS: 5, SelfMS: 5},
	}
	if len(layers) != len(want) {
		t.Fatalf("got %d layers, want %d: %+v", len(layers), len(want), layers)
	}
	var share float64
	for _, l := range layers {
		w := want[l.Name]
		if l.Count != w.Count || l.TotalMS != w.TotalMS || l.SelfMS != w.SelfMS {
			t.Errorf("%s: got %+v, want %+v", l.Name, l, w)
		}
		share += l.Share
	}
	if math.Abs(share-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", share)
	}
	if layers[0].Name != "child" {
		t.Errorf("first layer %q, want the largest self time first", layers[0].Name)
	}
}

func TestCovered(t *testing.T) {
	for _, tc := range []struct {
		ivs    []interval
		lo, hi int64
		want   int64
	}{
		{nil, 0, 10, 0},
		{[]interval{{0, 5}, {5, 10}}, 0, 10, 10},
		{[]interval{{2, 6}, {4, 8}, {1, 3}}, 0, 10, 7},
		{[]interval{{-5, 3}, {8, 20}}, 0, 10, 5}, // clipped to [0, 10)
		{[]interval{{20, 30}}, 0, 10, 0},
	} {
		if got := covered(tc.ivs, tc.lo, tc.hi); got != tc.want {
			t.Errorf("covered(%v, %d, %d) = %d, want %d", tc.ivs, tc.lo, tc.hi, got, tc.want)
		}
	}
}

// TestGraft joins the program's spans to the benchmark's: the umbrella is
// dropped, its children join the innermost benchmark span around them, and
// a server root joins the client span that shares its trace id.
func TestGraft(t *testing.T) {
	recs := []obs.SpanRecord{
		benchSpan("setup", "b1", "bench.setup", 0, 100),
		benchSpan("cold", "b2", "experiments.cold.table3", 100, 50),
		benchSpan("client", "c1", "client.request", 200, 30),
		span("run", "", "run", 0, 300),
		span("build", "run", "bench.build", 10, 80),
		span("exec", "build", "engine.exec", 20, 5),
		span("cell", "run", "task.cell", 110, 30),
		{TraceID: "c1", SpanID: "http", Name: "http.request", StartUS: 205, DurUS: 26},
		span("stray", "run", "task.cell", 400, 10), // no benchmark span around it
	}
	got := map[string]string{}
	for _, r := range graft(recs, "run") {
		got[r.SpanID] = r.ParentID
	}
	want := map[string]string{
		"setup": "", "cold": "", "client": "",
		"build": "setup", "exec": "build", "cell": "cold", "http": "client", "stray": "run",
	}
	if len(got) != len(want) {
		t.Fatalf("graft kept %v, want %v", got, want)
	}
	for id, parent := range want {
		if got[id] != parent {
			t.Errorf("%s: parent %q, want %q", id, got[id], parent)
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, tc := range []struct {
		q          float64
		want       float64
		wantBeyond int
	}{
		{0, 1, 999},
		{0.5, 500.5, 500},
		{0.99, 990.01, 10},
		{1, 1000, 0},
	} {
		got := quantile(xs, tc.q)
		if math.Abs(got.Value-tc.want) > 1e-9 || got.N != 1000 || got.Beyond != tc.wantBeyond {
			t.Errorf("quantile(%v) = %+v, want value %v, n 1000, beyond %d", tc.q, got, tc.want, tc.wantBeyond)
		}
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got.Value) || got.N != 0 {
		t.Errorf("quantile of no samples = %+v, want NaN with n 0", got)
	}
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s != (Summary{Median: 3, Q1: 2, Q3: 4, N: 5}) {
		t.Errorf("summarize = %+v", s)
	}
}
