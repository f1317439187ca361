package obs

// Export formats: the NDJSON span-record form (one JSON object per span,
// greppable and streamable) and the Chrome trace_event form loadable in
// chrome://tracing or https://ui.perfetto.dev. Both render []SpanRecord,
// the exported shape every Tracer sink traffics in.

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
)

// EventRecord is one exported span event.
type EventRecord struct {
	Name string `json:"name"`
	// AtUS is the event's wall-clock time in unix microseconds.
	AtUS  int64          `json:"at_us"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// SpanRecord is the exported form of one ended span.
type SpanRecord struct {
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	Name     string `json:"name"`
	// StartUS is the span's wall-clock start in unix microseconds; DurUS
	// its monotonic duration in microseconds.
	StartUS int64          `json:"start_us"`
	DurUS   int64          `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Events  []EventRecord  `json:"events,omitempty"`
}

// WriteNDJSON writes the records as newline-delimited JSON, one span per
// line.
func WriteNDJSON(w io.Writer, recs []SpanRecord) error {
	enc := json.NewEncoder(w)
	for _, r := range recs {
		if err := enc.Encode(r); err != nil {
			return fmt.Errorf("obs: encoding span %s: %w", r.SpanID, err)
		}
	}
	return nil
}

// chromeEvent is one entry of the Chrome trace_event format. Complete
// spans use phase "X" (ts + dur); span events become instant events
// (phase "i", thread scope).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   uint32         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the trace_event JSON object form.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace writes the records in Chrome trace_event JSON. Each
// trace id maps to one "thread" lane so concurrent traces (e.g. parallel
// task cells) render as parallel tracks; span attributes and ids ride in
// args.
func WriteChromeTrace(w io.Writer, recs []SpanRecord) error {
	out := chromeTrace{TraceEvents: make([]chromeEvent, 0, len(recs)), DisplayTimeUnit: "ms"}
	for _, r := range recs {
		args := make(map[string]any, len(r.Attrs)+3)
		for k, v := range r.Attrs {
			args[k] = v
		}
		args["trace_id"] = r.TraceID
		args["span_id"] = r.SpanID
		if r.ParentID != "" {
			args["parent_id"] = r.ParentID
		}
		tid := laneFor(r.TraceID)
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: r.Name, Phase: "X", TS: r.StartUS, Dur: maxI64(r.DurUS, 1),
			PID: 1, TID: tid, Args: args,
		})
		for _, e := range r.Events {
			eargs := make(map[string]any, len(e.Attrs)+1)
			for k, v := range e.Attrs {
				eargs[k] = v
			}
			eargs["span_id"] = r.SpanID
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: e.Name, Phase: "i", TS: e.AtUS,
				PID: 1, TID: tid, Scope: "t", Args: eargs,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

// laneFor folds a trace id onto a stable trace_event thread id.
func laneFor(traceID string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(traceID))
	// Avoid tid 0 (some viewers reserve it).
	return h.Sum32()%1_000_000 + 1
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
