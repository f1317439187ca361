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

// A partial-failure cell is scored over its graded results only, so its
// row names how many examples failed; a row with none prints no count.
func TestTaskGridShowsFailed(t *testing.T) {
	var buf bytes.Buffer
	TaskGrid(&buf, "syntax (syntax_error)", []string{"SDSS", "Join-Order"}, []string{"GPT4", "Gemini"},
		map[string]map[string]core.Summary{
			"GPT4": {
				"SDSS":       {N: 3, Accuracy: 1, Prec: 1, Rec: 1, F1: 1, HasPRF: true, Failed: 197},
				"Join-Order": {Failed: 200},
			},
			"Gemini": {
				"SDSS":       {N: 200, Accuracy: 0.7, Prec: 0.6, Rec: 0.8, F1: 0.69, HasPRF: true},
				"Join-Order": {N: 200, Accuracy: 0.6, Prec: 0.5, Rec: 0.7, F1: 0.58, HasPRF: true},
			},
		})
	for _, line := range strings.Split(buf.String(), "\n") {
		switch {
		case strings.HasPrefix(line, "GPT4"):
			if !strings.HasSuffix(line, "  failed: SDSS 197, Join-Order 200") {
				t.Errorf("GPT4 row lacks its failed counts: %q", line)
			}
		case strings.HasPrefix(line, "Gemini"):
			if strings.Contains(line, "failed") {
				t.Errorf("fault-free row prints a failed count: %q", line)
			}
		}
	}
}
