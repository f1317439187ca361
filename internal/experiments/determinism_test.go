package experiments

import (
	"bytes"
	"testing"

	"repro/internal/core"
)

// TestParallelismDoesNotChangeOutput is the pipeline's core determinism
// guarantee: every registered experiment must produce byte-identical output
// whether the environment runs sequentially (parallel=1) or on a worker pool
// (parallel=8). Both environments build with equivalence verification on, so
// the parallel benchmark build is covered too, not just the model task runs;
// the verification's engine row operations must match per dataset as well,
// and equal the seed's pinned counts.
func TestParallelismDoesNotChangeOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two verified environments")
	}
	seq, err := NewEnvConfig(Config{Seed: 1, VerifyEquivalences: true, Parallel: 1})
	if err != nil {
		t.Fatalf("sequential env: %v", err)
	}
	par, err := NewEnvConfig(Config{Seed: 1, VerifyEquivalences: true, Parallel: 8})
	if err != nil {
		t.Fatalf("parallel env: %v", err)
	}

	// Engine ops are a pure function of the seed. Pinning them catches an
	// engine change that silently skips (or repeats) row work while every
	// label stays the same.
	wantOps := map[string]int64{core.SDSS: 752, core.SQLShare: 7_936, core.JoinOrder: 0}
	var totalOps int64
	for _, ds := range core.TaskDatasets {
		if got := seq.Bench.EngineOps[ds]; got != wantOps[ds] {
			t.Errorf("%s verification engine ops = %d, want %d", ds, got, wantOps[ds])
		}
		totalOps += seq.Bench.EngineOps[ds]
	}
	if totalOps != 8_688 {
		t.Errorf("total verification engine ops = %d, want 8688", totalOps)
	}

	// The benchmarks themselves must match before any experiment runs.
	for _, ds := range core.TaskDatasets {
		if len(seq.Bench.Syntax[ds]) == 0 {
			t.Fatalf("%s syntax dataset is empty", ds)
		}
		if len(seq.Bench.Syntax[ds]) != len(par.Bench.Syntax[ds]) {
			t.Fatalf("%s syntax dataset size differs: %d vs %d",
				ds, len(seq.Bench.Syntax[ds]), len(par.Bench.Syntax[ds]))
		}
		if seq.Bench.EngineOps[ds] != par.Bench.EngineOps[ds] {
			t.Errorf("%s verification engine ops differ: %d at parallel=1, %d at parallel=8",
				ds, seq.Bench.EngineOps[ds], par.Bench.EngineOps[ds])
		}
		if len(seq.Bench.Equiv[ds]) != len(par.Bench.Equiv[ds]) {
			t.Fatalf("%s equiv dataset size differs: %d vs %d",
				ds, len(seq.Bench.Equiv[ds]), len(par.Bench.Equiv[ds]))
		}
		for i, ex := range seq.Bench.Equiv[ds] {
			pex := par.Bench.Equiv[ds][i]
			if ex.SQL1 != pex.SQL1 || ex.SQL2 != pex.SQL2 || ex.Equivalent != pex.Equivalent || ex.Type != pex.Type {
				t.Fatalf("%s equiv pair %d differs between sequential and parallel build", ds, i)
			}
		}
	}

	for _, exp := range All() {
		var a, b bytes.Buffer
		if err := exp.Run(seq, &a); err != nil {
			t.Fatalf("%s (parallel=1): %v", exp.ID, err)
		}
		if err := exp.Run(par, &b); err != nil {
			t.Fatalf("%s (parallel=8): %v", exp.ID, err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Errorf("%s: output differs between parallel=1 and parallel=8 (%d vs %d bytes)",
				exp.ID, a.Len(), b.Len())
		}
	}
}
