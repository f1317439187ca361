package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"
)

// stateLabelsGolden pins the state task's labels: the SHA-256 of every
// Benchmark.State example, serialized by stateLabelsDigest. The digests were
// captured from the original oracle; any oracle change that moves a single
// label byte (a row, its order, the script text, an ID) fails the test.
var stateLabelsGolden = map[int64]string{
	1: "049531dd2c5c15551bc0f51deb0cabcda4bb8c6224bda5259a12192c3a2afd15",
	2: "4039ab0179ba915bd0e85444171d4bfa58317ad2ff043da62188e1c02782aa61",
	3: "afd05be439575afa963ce9f83b42e33dbcf7fed514b31c69cde48f87ac9cd70a",
}

// stateLabelsDigest serializes the state examples canonically — datasets in
// TaskDatasets order, examples in cell order, fields NUL-separated, rows
// unit-separated, one line per example — and hashes the result.
func stateLabelsDigest(b *Benchmark) string {
	h := sha256.New()
	for _, ds := range TaskDatasets {
		for _, ex := range b.State[ds] {
			h.Write([]byte(strings.Join([]string{
				ds, ex.ID, ex.Script, ex.Table, strings.Join(ex.Want, "\x1f"),
			}, "\x00") + "\n"))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestStateLabelsGolden(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		b, err := Build(BuildConfig{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		n := 0
		for _, ds := range TaskDatasets {
			n += len(b.State[ds])
		}
		if n != len(TaskDatasets)*stateScriptsPerDataset {
			t.Fatalf("seed %d: %d state examples, want %d", seed, n, len(TaskDatasets)*stateScriptsPerDataset)
		}
		if got, want := stateLabelsDigest(b), stateLabelsGolden[seed]; got != want {
			t.Errorf("seed %d: state labels digest = %s, want %s", seed, got, want)
		}
	}
}
