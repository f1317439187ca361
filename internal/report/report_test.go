package report

import (
	"strings"
	"testing"

	"repro/internal/metrics"
)

func TestMetricTable(t *testing.T) {
	var b strings.Builder
	cells := map[string]map[string]PRF{
		"GPT4": {"SDSS": {Prec: 0.98, Rec: 0.95, F1: 0.97}},
	}
	MetricTable(&b, "syntax_error", []string{"SDSS"}, []string{"GPT4"}, cells)
	out := b.String()
	for _, want := range []string{"syntax_error", "GPT4", "0.98", "0.95", "0.97", "SDSS"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestFromBinary(t *testing.T) {
	b := metrics.Binary{TPs: 9, FNs: 1, FPs: 1, TNs: 9}
	prf := FromBinary(b)
	if prf.Prec != 0.9 || prf.Rec != 0.9 {
		t.Errorf("prf = %+v", prf)
	}
}

func TestLocationTable(t *testing.T) {
	var b strings.Builder
	cells := map[string]map[string]LocRow{
		"GPT4": {"SDSS": {MAE: 4.69, HR: 0.56}},
	}
	LocationTable(&b, "loc", []string{"SDSS"}, []string{"GPT4"}, cells)
	if !strings.Contains(b.String(), "4.69") || !strings.Contains(b.String(), "0.56") {
		t.Errorf("output = %s", b.String())
	}
}

func TestHistogram(t *testing.T) {
	var b strings.Builder
	Histogram(&b, "words", []string{"1-30", "30+"}, []int{10, 5})
	out := b.String()
	if !strings.Contains(out, "1-30") || !strings.Contains(out, "10") {
		t.Errorf("output = %s", out)
	}
	// The larger bucket gets the longer bar.
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if strings.Count(lines[1], "#") <= strings.Count(lines[2], "#") {
		t.Errorf("bar lengths wrong:\n%s", out)
	}
}

func TestHistogramZeroCounts(t *testing.T) {
	var b strings.Builder
	Histogram(&b, "empty", []string{"a"}, []int{0}) // must not divide by zero
	if !strings.Contains(b.String(), "a") {
		t.Error("label missing")
	}
}

func TestRateBars(t *testing.T) {
	var b strings.Builder
	RateBars(&b, "fn rates", []string{"keyword", "value"}, map[string]float64{"keyword": 0.5, "value": 0.1})
	out := b.String()
	if !strings.Contains(out, "keyword") || !strings.Contains(out, "0.50") {
		t.Errorf("output = %s", out)
	}
}

func TestCorrMatrixRender(t *testing.T) {
	var b strings.Builder
	CorrMatrix(&b, "corr", []string{"A_Long_Name", "B"}, [][]float64{{1, 0.5}, {0.5, 1}})
	out := b.String()
	if !strings.Contains(out, "A_Long_Name") || !strings.Contains(out, "0.50") {
		t.Errorf("output = %s", out)
	}
}

func TestOutcomePanel(t *testing.T) {
	bd := metrics.NewBreakdown()
	bd.Add(true, true, 10)
	bd.Add(true, false, 99)
	var b strings.Builder
	OutcomePanel(&b, "panel", bd)
	out := b.String()
	for _, want := range []string{"TP", "FN", "10.00", "99.00"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSection(t *testing.T) {
	var b strings.Builder
	Section(&b, "My Section")
	out := b.String()
	if !strings.Contains(out, "My Section") || !strings.Contains(out, strings.Repeat("=", 72)) {
		t.Errorf("output = %s", out)
	}
}
