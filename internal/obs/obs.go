// Package obs is the pipeline's dependency-free tracing and telemetry
// layer: context-propagated spans with monotonic timing, parent/child
// links, attributes, and point-in-time events, exported as NDJSON span
// records, Chrome trace_event JSON (loadable in chrome://tracing or
// Perfetto), or a bounded in-memory ring the serve layer snapshots for
// GET /v1/trace.
//
// The design constraint that shapes the API is that tracing must cost
// nothing when off: Start on a context without a tracer performs two
// context lookups and returns a nil *Span, and every Span method is
// nil-receiver-safe, so instrumented code needs no "is tracing on" branch
// of its own. Call sites that would allocate just to build event
// attributes guard with SpanFrom(ctx) != nil first. A benchmark-backed
// test (noop_test.go) holds the disabled path at zero allocations.
package obs

import (
	"context"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value span or event annotation. Value should be a
// string, bool, int64, or float64 so records JSON-encode predictably.
type Attr struct {
	Key   string
	Value any
}

// String builds a string attribute.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer attribute.
func Int(key string, value int64) Attr { return Attr{Key: key, Value: value} }

// event is one recorded point-in-time occurrence inside a span.
type event struct {
	name  string
	at    time.Duration // offset from span start
	attrs []Attr
}

// Span is one timed operation. Spans are created by Start, annotated with
// Set*/Event, and exported on End. A nil *Span is the disabled form: every
// method is a no-op, so instrumented code never branches on tracing state.
// A Span's setters and Event may be called from multiple goroutines.
type Span struct {
	tr      *Tracer
	traceID string
	id      uint64
	parent  uint64
	name    string
	start   time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []event
	ended  bool
}

// TraceID returns the span's trace identifier ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// SetAttr records one attribute. Later values for the same key win at
// export time.
func (s *Span) SetAttr(a Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.mu.Unlock()
}

// SetString records a string attribute.
func (s *Span) SetString(key, value string) { s.SetAttr(Attr{Key: key, Value: value}) }

// SetInt records an integer attribute.
func (s *Span) SetInt(key string, value int64) { s.SetAttr(Attr{Key: key, Value: value}) }

// SetBool records a boolean attribute.
func (s *Span) SetBool(key string, value bool) { s.SetAttr(Attr{Key: key, Value: value}) }

// Event records a point-in-time occurrence at the current monotonic offset
// into the span. Call sites on hot paths should guard with
// SpanFrom(ctx) != nil before building attrs, so the disabled path never
// allocates the attribute slice.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	at := time.Since(s.start)
	s.mu.Lock()
	s.events = append(s.events, event{name: name, at: at, attrs: attrs})
	s.mu.Unlock()
}

// End closes the span and exports it. Only the first End has effect.
func (s *Span) End() {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := s.recordLocked(dur)
	s.mu.Unlock()
	s.tr.export(rec)
}

// EndErr records err as the span's error attribute (when non-nil) and ends
// it — the one-line failure form of End.
func (s *Span) EndErr(err error) {
	if s == nil {
		return
	}
	if err != nil {
		s.SetString("error", err.Error())
	}
	s.End()
}

// recordLocked renders the export record; s.mu must be held.
func (s *Span) recordLocked(dur time.Duration) SpanRecord {
	rec := SpanRecord{
		TraceID: s.traceID,
		SpanID:  formatID(s.id),
		Name:    s.name,
		StartUS: s.start.UnixMicro(),
		DurUS:   dur.Microseconds(),
	}
	if s.parent != 0 {
		rec.ParentID = formatID(s.parent)
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			rec.Attrs[a.Key] = a.Value
		}
	}
	for _, e := range s.events {
		er := EventRecord{Name: e.name, AtUS: s.start.Add(e.at).UnixMicro()}
		if len(e.attrs) > 0 {
			er.Attrs = make(map[string]any, len(e.attrs))
			for _, a := range e.attrs {
				er.Attrs[a.Key] = a.Value
			}
		}
		rec.Events = append(rec.Events, er)
	}
	return rec
}

// formatID renders a span id as 16 zero-padded hex digits.
func formatID(id uint64) string {
	const digits = "0123456789abcdef"
	var buf [16]byte
	for i := 15; i >= 0; i-- {
		buf[i] = digits[id&0xf]
		id >>= 4
	}
	return string(buf[:])
}

// ---------------------------------------------------------------------------
// Tracer

// Tracer creates and exports spans. A Tracer fans each ended span out to
// every configured sink: the bounded in-memory ring (WithRing) and the
// unbounded collector (WithCollector). Safe for concurrent use. A nil
// *Tracer is valid and inert.
type Tracer struct {
	ring    *ring
	collect bool

	nextID  atomic.Uint64
	entropy uint64

	mu        sync.Mutex
	collected []SpanRecord
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithRing bounds an in-memory ring of the most recent n span records —
// the store behind the serve layer's GET /v1/trace. n < 1 is treated as 1.
func WithRing(n int) Option {
	if n < 1 {
		n = 1
	}
	return func(t *Tracer) { t.ring = &ring{buf: make([]SpanRecord, n)} }
}

// WithCollector retains every ended span in memory for a post-run export
// (sqlbench -trace-out). Unbounded: meant for one-shot runs, not servers.
func WithCollector() Option {
	return func(t *Tracer) { t.collect = true }
}

// New builds a tracer with the given sinks. A tracer with no sinks still
// creates real spans (their records are dropped at export), which only
// makes sense in tests.
func New(opts ...Option) *Tracer {
	t := &Tracer{entropy: processEntropy()}
	for _, o := range opts {
		o(t)
	}
	return t
}

// processEntropy derives per-process randomness for trace ids without
// importing math/rand: wall clock nanos mixed with the pid through a
// splitmix64 finalizer.
func processEntropy() uint64 {
	x := uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<32
	return mix64(x)
}

func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// spanID returns the next process-unique span id (never 0).
func (t *Tracer) spanID() uint64 {
	for {
		if id := t.nextID.Add(1) ^ t.entropy; id != 0 {
			return id
		}
	}
}

// NewTraceID returns a fresh 32-hex-digit trace id, the W3C traceparent
// width, usable as a cross-process request id.
func (t *Tracer) NewTraceID() string {
	hi := mix64(t.entropy ^ t.nextID.Add(1))
	lo := mix64(hi ^ 0x9e3779b97f4a7c15)
	return formatID(hi) + formatID(lo)
}

// export fans one ended span's record out to the configured sinks.
func (t *Tracer) export(rec SpanRecord) {
	if t == nil {
		return
	}
	if t.ring != nil {
		t.ring.add(rec)
	}
	if !t.collect {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.collected = append(t.collected, rec)
}

// Collected returns a copy of every span retained by WithCollector, in end
// order.
func (t *Tracer) Collected() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]SpanRecord{}, t.collected...)
}

// Snapshot returns the ring's retained spans oldest-first plus how many
// older spans the ring has evicted. Nil tracers and ringless tracers
// return (nil, 0).
func (t *Tracer) Snapshot() ([]SpanRecord, uint64) {
	if t == nil || t.ring == nil {
		return nil, 0
	}
	return t.ring.snapshot()
}

// Retained reports how many spans the ring holds and how many older spans
// it has evicted, without copying them. Nil tracers and ringless tracers
// report (0, 0).
func (t *Tracer) Retained() (int, uint64) {
	if t == nil || t.ring == nil {
		return 0, 0
	}
	r := t.ring
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf), r.evicted
	}
	return r.next, r.evicted
}

// ---------------------------------------------------------------------------
// Ring

// ring is a bounded span-record buffer: the newest len(buf) records win.
type ring struct {
	mu      sync.Mutex
	buf     []SpanRecord
	next    int
	full    bool
	evicted uint64
}

func (r *ring) add(rec SpanRecord) {
	r.mu.Lock()
	if r.full {
		r.evicted++
	}
	r.buf[r.next] = rec
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
}

func (r *ring) snapshot() ([]SpanRecord, uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.full {
		return append([]SpanRecord{}, r.buf[:r.next]...), r.evicted
	}
	out := make([]SpanRecord, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out, r.evicted
}

// ---------------------------------------------------------------------------
// Context propagation

type tracerKey struct{}
type spanKey struct{}

// With returns a context carrying the tracer; spans started under it
// become roots of fresh traces.
func With(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey{}, t)
}

// TracerFrom returns the context's tracer, directly attached or via its
// current span. Nil when tracing is off.
func TracerFrom(ctx context.Context) *Tracer {
	if s, ok := ctx.Value(spanKey{}).(*Span); ok && s != nil {
		return s.tr
	}
	t, _ := ctx.Value(tracerKey{}).(*Tracer)
	return t
}

// SpanFrom returns the context's current span, nil when tracing is off.
// The nil result is safe to use directly; guard with != nil only to avoid
// building attributes on hot paths.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// Start begins a span as a child of the context's current span (or as a
// root of a new trace when only a tracer is attached) and returns the
// derived context carrying it. With no tracer in the context it returns
// the context unchanged and a nil span — the allocation-free disabled
// path.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(spanKey{}).(*Span)
	var tr *Tracer
	if parent != nil {
		tr = parent.tr
	} else {
		tr, _ = ctx.Value(tracerKey{}).(*Tracer)
	}
	if tr == nil {
		return ctx, nil
	}
	s := &Span{tr: tr, id: tr.spanID(), name: name, start: time.Now()}
	if parent != nil {
		s.traceID = parent.traceID
		s.parent = parent.id
	} else {
		s.traceID = tr.NewTraceID()
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// StartTrace begins a root span under an explicit trace id — the serve
// layer's entry point, where the id was propagated from (or is returned
// to) the caller via the X-Request-Id / traceparent headers. It requires a
// tracer directly attached with With; the context's current span, if any,
// is ignored.
func StartTrace(ctx context.Context, name, traceID string) (context.Context, *Span) {
	tr, _ := ctx.Value(tracerKey{}).(*Tracer)
	if tr == nil {
		return ctx, nil
	}
	if traceID == "" {
		traceID = tr.NewTraceID()
	}
	s := &Span{tr: tr, id: tr.spanID(), name: name, traceID: traceID, start: time.Now()}
	return context.WithValue(ctx, spanKey{}, s), s
}
