package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"repro/internal/runner"
)

// TestSpanNesting verifies parent/child links and trace-id inheritance
// across three levels.
func TestSpanNesting(t *testing.T) {
	tr := New(WithCollector())
	ctx := With(context.Background(), tr)

	ctx, root := Start(ctx, "root")
	root.SetString("kind", "run")
	cctx, child := Start(ctx, "child")
	_, grand := Start(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	recs := tr.Collected()
	if len(recs) != 3 {
		t.Fatalf("collected %d spans, want 3", len(recs))
	}
	// End order: grandchild, child, root.
	g, c, r := recs[0], recs[1], recs[2]
	if g.Name != "grandchild" || c.Name != "child" || r.Name != "root" {
		t.Fatalf("unexpected span order: %s, %s, %s", g.Name, c.Name, r.Name)
	}
	if r.ParentID != "" {
		t.Errorf("root has parent %q", r.ParentID)
	}
	if c.ParentID != r.SpanID {
		t.Errorf("child parent = %q, want root %q", c.ParentID, r.SpanID)
	}
	if g.ParentID != c.SpanID {
		t.Errorf("grandchild parent = %q, want child %q", g.ParentID, c.SpanID)
	}
	if c.TraceID != r.TraceID || g.TraceID != r.TraceID {
		t.Errorf("trace ids diverge: %q %q %q", r.TraceID, c.TraceID, g.TraceID)
	}
	if len(r.TraceID) != 32 {
		t.Errorf("trace id %q is not 32 hex digits", r.TraceID)
	}
	if r.Attrs["kind"] != "run" {
		t.Errorf("root attrs = %v", r.Attrs)
	}
}

// TestConcurrentChildren drives child spans from runner.Map workers — the
// exact shape of the task drivers' example fan-out — and verifies every
// child links to the same parent with no lost or corrupted records.
func TestConcurrentChildren(t *testing.T) {
	tr := New(WithCollector())
	ctx := With(context.Background(), tr)
	ctx, parent := Start(ctx, "cell")

	items := make([]int, 64)
	for i := range items {
		items[i] = i
	}
	_, err := runner.Map(ctx, 8, items, func(ctx context.Context, _ int, i int) (struct{}, error) {
		_, s := Start(ctx, "example")
		s.SetInt("idx", int64(i))
		s.Event("checked")
		s.End()
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	parent.End()

	recs := tr.Collected()
	if len(recs) != len(items)+1 {
		t.Fatalf("collected %d spans, want %d", len(recs), len(items)+1)
	}
	seen := map[int64]bool{}
	for _, r := range recs[:len(items)] {
		if r.Name != "example" {
			t.Fatalf("unexpected span %q", r.Name)
		}
		if r.TraceID != parent.TraceID() {
			t.Errorf("child trace %q != parent %q", r.TraceID, parent.TraceID())
		}
		idx, ok := r.Attrs["idx"].(int64)
		if !ok {
			t.Fatalf("idx attr missing: %v", r.Attrs)
		}
		if seen[idx] {
			t.Errorf("duplicate child span for idx %d", idx)
		}
		seen[idx] = true
		if len(r.Events) != 1 || r.Events[0].Name != "checked" {
			t.Errorf("child events = %v", r.Events)
		}
	}
	if len(seen) != len(items) {
		t.Errorf("saw %d distinct children, want %d", len(seen), len(items))
	}
}

// TestRingEviction fills a small ring past capacity and verifies only the
// newest spans survive, oldest-first, with the eviction count reported.
func TestRingEviction(t *testing.T) {
	tr := New(WithRing(4))
	ctx := With(context.Background(), tr)
	for i := 0; i < 10; i++ {
		_, s := Start(ctx, fmt.Sprintf("span-%d", i))
		s.End()
	}
	recs, evicted := tr.Snapshot()
	if len(recs) != 4 {
		t.Fatalf("ring holds %d, want 4", len(recs))
	}
	if evicted != 6 {
		t.Errorf("evicted = %d, want 6", evicted)
	}
	if n, ev := tr.Retained(); n != 4 || ev != 6 {
		t.Errorf("Retained = %d, %d; want 4, 6", n, ev)
	}
	for i, r := range recs {
		want := fmt.Sprintf("span-%d", 6+i)
		if r.Name != want {
			t.Errorf("ring[%d] = %q, want %q", i, r.Name, want)
		}
	}
}

// TestRingPartial snapshots a ring that has not wrapped yet.
func TestRingPartial(t *testing.T) {
	tr := New(WithRing(8))
	ctx := With(context.Background(), tr)
	for i := 0; i < 3; i++ {
		_, s := Start(ctx, fmt.Sprintf("s%d", i))
		s.End()
	}
	recs, evicted := tr.Snapshot()
	if len(recs) != 3 || evicted != 0 {
		t.Fatalf("got %d spans, %d evicted; want 3, 0", len(recs), evicted)
	}
	if n, ev := tr.Retained(); n != 3 || ev != 0 {
		t.Errorf("Retained = %d, %d; want 3, 0", n, ev)
	}
	if recs[0].Name != "s0" || recs[2].Name != "s2" {
		t.Errorf("order wrong: %v", recs)
	}
}

// TestEndIdempotent ensures double End exports once.
func TestEndIdempotent(t *testing.T) {
	tr := New(WithCollector())
	ctx := With(context.Background(), tr)
	_, s := Start(ctx, "once")
	s.End()
	s.End()
	if n := len(tr.Collected()); n != 1 {
		t.Fatalf("exported %d times, want 1", n)
	}
}

// TestNDJSONRoundTrip writes spans as NDJSON and parses each line back.
func TestNDJSONRoundTrip(t *testing.T) {
	tr := New(WithCollector())
	ctx := With(context.Background(), tr)
	ctx, root := Start(ctx, "root")
	_, child := Start(ctx, "child")
	child.SetInt("n", 7)
	child.Event("evt", String("k", "v"))
	child.EndErr(fmt.Errorf("boom"))
	root.End()

	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, tr.Collected()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2", len(lines))
	}
	var rec SpanRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 0 does not parse: %v", err)
	}
	if rec.Name != "child" || rec.Attrs["error"] != "boom" || rec.Attrs["n"] != float64(7) {
		t.Errorf("child record = %+v", rec)
	}
	if len(rec.Events) != 1 || rec.Events[0].Attrs["k"] != "v" {
		t.Errorf("child events = %v", rec.Events)
	}
}

// TestChromeTraceRoundTrip writes the Chrome trace_event form and checks
// it parses with complete-span and instant events present.
func TestChromeTraceRoundTrip(t *testing.T) {
	tr := New(WithCollector())
	ctx := With(context.Background(), tr)
	ctx, root := Start(ctx, "request")
	_, child := Start(ctx, "attempt")
	child.Event("retry", Int("attempt", 1))
	child.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr.Collected()); err != nil {
		t.Fatal(err)
	}
	var parsed struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &parsed); err != nil {
		t.Fatalf("chrome trace does not parse: %v", err)
	}
	var complete, instant int
	for _, e := range parsed.TraceEvents {
		switch e["ph"] {
		case "X":
			complete++
		case "i":
			instant++
		}
	}
	if complete != 2 || instant != 1 {
		t.Errorf("got %d complete + %d instant events, want 2 + 1", complete, instant)
	}
}

// TestStartTraceExplicitID pins a root span to a caller-supplied trace id —
// the serve layer's propagated request id.
func TestStartTraceExplicitID(t *testing.T) {
	tr := New(WithCollector())
	ctx := With(context.Background(), tr)
	const rid = "0123456789abcdef0123456789abcdef"
	ctx, root := Start(ctx, "ignore-me") // StartTrace must ignore the current span
	_ = ctx
	sctx, s := StartTrace(With(context.Background(), tr), "http", rid)
	if s.TraceID() != rid {
		t.Fatalf("trace id = %q, want %q", s.TraceID(), rid)
	}
	_, child := Start(sctx, "inner")
	child.End()
	s.End()
	root.End()
	recs := tr.Collected()
	if recs[0].TraceID != rid || recs[1].TraceID != rid {
		t.Errorf("children did not inherit the explicit trace id: %v", recs)
	}
}

// TestNilSafety exercises every method on nil spans and tracers.
func TestNilSafety(t *testing.T) {
	ctx, s := Start(context.Background(), "off")
	if s != nil {
		t.Fatal("Start without a tracer returned a live span")
	}
	s.SetString("k", "v")
	s.SetInt("n", 1)
	s.SetBool("b", true)
	s.Event("e")
	s.EndErr(fmt.Errorf("x"))
	s.End()
	if s.TraceID() != "" {
		t.Error("nil span has a trace id")
	}
	if SpanFrom(ctx) != nil || TracerFrom(ctx) != nil {
		t.Error("disabled context leaked a span or tracer")
	}
	var nilTr *Tracer
	nilTr.export(SpanRecord{})
	if recs, ev := nilTr.Snapshot(); recs != nil || ev != 0 {
		t.Error("nil tracer snapshot not empty")
	}
	if n, ev := nilTr.Retained(); n != 0 || ev != 0 {
		t.Error("nil tracer retains spans")
	}
	if nilTr.Collected() != nil {
		t.Error("nil tracer collected not empty")
	}
}
