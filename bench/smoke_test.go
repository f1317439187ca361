package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// result decodes the JSON line a run ends with.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out)
	}
	return r
}

// TestWorkloadsSmoke runs every workload for about a second, untraced and
// traced, and checks the result line carries exactly the advertised
// metrics.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, name := range workloadNames {
		for trace, want := range map[string][]string{"0": endToEnd, "1": perLayer} {
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", name, "--seconds", "1", "--trace", trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s trace %s: exit %d\n%s%s", name, trace, code, stdout.String(), stderr.String())
			}
			r := lastLine(t, stdout.String())
			if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
				t.Errorf("%s trace %s: %+v", name, trace, r)
			}
			var got []string
			for k := range r.Metrics {
				got = append(got, k)
			}
			sort.Strings(got)
			w := append([]string(nil), want...)
			sort.Strings(w)
			if strings.Join(got, ",") != strings.Join(w, ",") {
				t.Errorf("%s trace %s: metrics %v, want %v", name, trace, got, w)
			}
		}
	}
}

// TestMismatchExitsNonZero forces a correctness mismatch — artifacts that
// differ from the recorded digests — and requires a failed count, a false
// verdict and a non-zero exit.
func TestMismatchExitsNonZero(t *testing.T) {
	golden := make([][sha256.Size]byte, len(experiments.All()))
	it, err := paperIteration(context.Background(), 1, workers, 0, golden)
	if err != nil {
		t.Fatal(err)
	}
	it.env.Close()
	if it.failed != len(golden) {
		t.Fatalf("%d failures for %d mismatched artifacts", it.failed, len(golden))
	}
	var out bytes.Buffer
	if code := report(&out, "paper", &outcome{attempted: it.runs, failed: it.failed}); code == 0 {
		t.Fatalf("exit 0 on a mismatch:\n%s", out.String())
	}
	if r := lastLine(t, out.String()); r.Correct || r.Failed != len(golden) {
		t.Errorf("result %+v", r)
	}
}

func TestCheckEval(t *testing.T) {
	req := request{task: "equiv", model: "GPT4", sql: [][]string{{"SELECT 1", "SELECT 2"}, {"SELECT 3", "SELECT 4"}}}
	good := `{"index":0,"id":"adhoc/0","task":"equiv","sql":"SELECT 1","sql2":"SELECT 2","pred_equivalent":true}
{"index":1,"id":"adhoc/1","task":"equiv","sql":"SELECT 3","sql2":"SELECT 4","pred_equivalent":false}
`
	if err := checkEval(http.StatusOK, []byte(good), req); err != nil {
		t.Fatalf("good response rejected: %v", err)
	}
	first, _, _ := strings.Cut(good, "\n")
	for name, tc := range map[string]struct {
		status int
		body   string
	}{
		"status":      {http.StatusBadRequest, `{"error":"bad"}`},
		"short":       {http.StatusOK, first + "\n"},
		"index":       {http.StatusOK, strings.Replace(good, `"index":1`, `"index":2`, 1)},
		"task":        {http.StatusOK, strings.Replace(good, `"task":"equiv","sql":"SELECT 3"`, `"task":"syntax","sql":"SELECT 3"`, 1)},
		"statement":   {http.StatusOK, strings.Replace(good, `"sql2":"SELECT 4"`, `"sql2":"SELECT 5"`, 1)},
		"failed row":  {http.StatusOK, strings.Replace(good, `"pred_equivalent":false`, `"failed":true,"error":"boom"`, 1)},
		"error line":  {http.StatusOK, first + "\n" + `{"error":"eval: boom"}` + "\n"},
		"not ndjson":  {http.StatusOK, "oops\noops\n"},
		"empty":       {http.StatusOK, ""},
		"extra lines": {http.StatusOK, good + good},
	} {
		if err := checkEval(tc.status, []byte(tc.body), req); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
