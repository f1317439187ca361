package report

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// TaskGrid must render any task's accuracy cells generically: PRF columns
// for confusion-graded tasks, dashes for continuously graded ones.
func TestTaskGrid(t *testing.T) {
	var buf bytes.Buffer
	TaskGrid(&buf, "fill (fill_token)", []string{"SDSS", "SQLShare"}, []string{"GPT4", "Gemini"},
		map[string]map[string]core.Summary{
			"GPT4": {
				"SDSS":     {N: 100, Accuracy: 0.61, Prec: 0.9, Rec: 0.95, F1: 0.92, HasPRF: true},
				"SQLShare": {N: 80, Accuracy: 0.55, Prec: 0.8, Rec: 0.85, F1: 0.82, HasPRF: true},
			},
			"Gemini": {
				"SDSS":     {N: 100, Accuracy: 0.72},
				"SQLShare": {N: 80, Accuracy: 0.68},
			},
		})
	out := buf.String()
	for _, want := range []string{"fill (fill_token)", "GPT4", "Gemini", "SDSS", "SQLShare", "Acc.", "0.61", "0.92"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	// The non-PRF row renders dashes, not zeros.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Gemini") {
			if !strings.Contains(line, "-") {
				t.Errorf("non-PRF row has no dashes: %q", line)
			}
			if strings.Contains(line, "0.00") {
				t.Errorf("non-PRF row renders zero PRF: %q", line)
			}
		}
	}
	// Deterministic rendering.
	var again bytes.Buffer
	TaskGrid(&again, "fill (fill_token)", []string{"SDSS", "SQLShare"}, []string{"GPT4", "Gemini"},
		map[string]map[string]core.Summary{
			"GPT4": {
				"SDSS":     {N: 100, Accuracy: 0.61, Prec: 0.9, Rec: 0.95, F1: 0.92, HasPRF: true},
				"SQLShare": {N: 80, Accuracy: 0.55, Prec: 0.8, Rec: 0.85, F1: 0.82, HasPRF: true},
			},
			"Gemini": {
				"SDSS":     {N: 100, Accuracy: 0.72},
				"SQLShare": {N: 80, Accuracy: 0.68},
			},
		})
	if out != again.String() {
		t.Error("TaskGrid output is not deterministic")
	}
}
