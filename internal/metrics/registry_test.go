package metrics

import (
	"bytes"
	"testing"
	"time"
)

type testSource struct {
	hits  int
	state int
	lat   LatencyHistogram
}

var testFamilies = []Family[*testSource]{
	{Name: "hits", Type: Counter, Help: "Hits seen.",
		Value: func(s *testSource) float64 { return float64(s.hits) }},
	{Name: "state", Type: Gauge, Help: "State: 0 off, 1 on.",
		Value:  func(s *testSource) float64 { return float64(s.state) },
		States: []string{"off", "on"}},
	{Name: "latency_seconds", Type: Histogram, Help: "Latency.",
		Hist: func(s *testSource) *LatencyHistogram { return &s.lat }},
}

// Each surface renders the same families: JSON and text skip histograms
// and spell enumerated gauges, Prometheus writes their ordinals and expands
// histograms into cumulative buckets.
func TestFamilySurfaces(t *testing.T) {
	src := &testSource{hits: 3, state: 1}
	src.lat.Observe(1500 * time.Microsecond)

	obj := Object(testFamilies, src)
	if len(obj) != 2 || obj["hits"] != 3.0 || obj["state"] != "on" {
		t.Errorf("Object = %v", obj)
	}
	src.state = 7
	if got := Object(testFamilies, src)["state"]; got != "unknown" {
		t.Errorf("out-of-range state = %v, want unknown", got)
	}
	src.state = 0
	if got := Text(testFamilies, src); got != "hits=3 state=off" {
		t.Errorf("Text = %q", got)
	}

	var b bytes.Buffer
	WriteProm(&b, "x_", testFamilies, "model", Labeled[*testSource]{Label: "m", From: src})
	want := `# HELP x_hits Hits seen.
# TYPE x_hits counter
x_hits{model="m"} 3
# HELP x_state State: 0 off, 1 on.
# TYPE x_state gauge
x_state{model="m"} 0
# HELP x_latency_seconds Latency.
# TYPE x_latency_seconds histogram
`
	got := b.String()
	if len(got) < len(want) || got[:len(want)] != want {
		t.Fatalf("WriteProm prefix:\n%s\nwant:\n%s", got, want)
	}
	for _, line := range []string{
		`x_latency_seconds_bucket{model="m",le="0.001"} 0`,
		`x_latency_seconds_bucket{model="m",le="0.002"} 1`,
		`x_latency_seconds_bucket{model="m",le="+Inf"} 1`,
		`x_latency_seconds_sum{model="m"} 0.0015`,
		`x_latency_seconds_count{model="m"} 1`,
	} {
		if !bytes.Contains(b.Bytes(), []byte(line+"\n")) {
			t.Errorf("WriteProm missing %q in:\n%s", line, got)
		}
	}

	// Unlabeled sources render bare sample names; no sources, nothing.
	b.Reset()
	WriteProm(&b, "x_", testFamilies[:1], "", Labeled[*testSource]{From: src})
	if got := b.String(); got != "# HELP x_hits Hits seen.\n# TYPE x_hits counter\nx_hits 3\n" {
		t.Errorf("unlabeled WriteProm = %q", got)
	}
	b.Reset()
	WriteProm(&b, "x_", testFamilies, "model")
	if b.Len() != 0 {
		t.Errorf("WriteProm without sources wrote %q", b.String())
	}
}
