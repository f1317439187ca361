package metrics

import (
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
)

// Type is a telemetry family's type, named as the Prometheus exposition
// format names it.
type Type string

// Family types.
const (
	Counter   Type = "counter"
	Gauge     Type = "gauge"
	Histogram Type = "histogram"
)

// Family declares one telemetry family: its name, type, help text and how
// to read it from a source S (the service, one model's stats, one task's
// count). Family lists are the single registry behind every telemetry
// surface — JSON (Object), Prometheus text (WriteProm) and the sqlbench
// -stats line (Text) all iterate them — so adding a counter means adding
// one Family entry to the list that reads its source.
type Family[S any] struct {
	Name string
	Type Type
	Help string
	// Value reads a counter or gauge sample.
	Value func(S) float64
	// States names the values of an enumerated gauge: JSON and text render
	// a sample v as States[v], Prometheus as v.
	States []string
	// Hist reads a histogram family. Only the Prometheus exposition renders
	// histograms; JSON and text carry their summaries as gauge families of
	// their own.
	Hist func(S) *LatencyHistogram
}

// Labeled is one source of a labeled family list: the label value its
// samples carry and the source its families read.
type Labeled[S any] struct {
	Label string
	From  S
}

// JSON reads a counter or gauge sample in its JSON form: a number, or the
// state name of an enumerated gauge.
func (f Family[S]) JSON(src S) any {
	v := f.Value(src)
	if f.States == nil {
		return v
	}
	if i := int(v); i >= 0 && i < len(f.States) {
		return f.States[i]
	}
	return "unknown"
}

// Object renders one source's counter and gauge families as a JSON object
// keyed by family name.
func Object[S any](fams []Family[S], src S) map[string]any {
	out := make(map[string]any, len(fams))
	for _, f := range fams {
		if f.Type != Histogram {
			out[f.Name] = f.JSON(src)
		}
	}
	return out
}

// Text renders one source's counter and gauge families as space-separated
// name=value pairs in list order.
func Text[S any](fams []Family[S], src S) string {
	var pairs []string
	for _, f := range fams {
		if f.Type == Histogram {
			continue
		}
		v := f.JSON(src)
		if x, ok := v.(float64); ok {
			v = formatFloat(x)
		}
		pairs = append(pairs, fmt.Sprintf("%s=%v", f.Name, v))
	}
	return strings.Join(pairs, " ")
}

// WriteProm writes families in the Prometheus text exposition format
// (version 0.0.4): a HELP/TYPE preamble per family, then one sample per
// source named prefix+Name and labeled label="<source label>" unless label
// is empty. Histograms expand into cumulative _bucket samples (le in
// seconds, +Inf last), _sum and _count. Without sources nothing is written.
func WriteProm[S any](w io.Writer, prefix string, fams []Family[S], label string, srcs ...Labeled[S]) {
	if len(srcs) == 0 {
		return
	}
	for _, f := range fams {
		name := prefix + f.Name
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, f.Help, name, f.Type)
		for _, src := range srcs {
			var labels []string
			if label != "" {
				labels = append(labels, fmt.Sprintf("%s=%q", label, src.Label))
			}
			if f.Type != Histogram {
				fmt.Fprintf(w, "%s%s %s\n", name, promLabels(labels), formatFloat(f.Value(src.From)))
				continue
			}
			h := f.Hist(src.From)
			for _, b := range h.Cumulative() {
				le := fmt.Sprintf("le=%q", promLE(b.UpperBound))
				fmt.Fprintf(w, "%s_bucket%s %d\n", name, promLabels(append(labels, le)), b.Count)
			}
			fmt.Fprintf(w, "%s_sum%s %s\n", name, promLabels(labels), formatFloat(h.Sum().Seconds()))
			fmt.Fprintf(w, "%s_count%s %d\n", name, promLabels(labels), h.Count())
		}
	}
}

// promLabels renders a sample's label set, empty when it has none.
func promLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	return "{" + strings.Join(pairs, ",") + "}"
}

// promLE renders a histogram bucket bound in seconds; UpperBound 0 is the
// final unbounded bucket, rendered as +Inf per the exposition format.
func promLE(d time.Duration) string {
	if d == 0 {
		return "+Inf"
	}
	return formatFloat(d.Seconds())
}

// formatFloat renders a sample in its shortest decimal form, never in
// scientific notation for the magnitudes in play here.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'f', -1, 64)
}
