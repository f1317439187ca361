package main

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/sqllex"
)

var (
	poolOnce             sync.Once
	sharedPool, uniqPool *pool
	poolErr              error
)

// testPools builds the seed-1 pools once for every test that needs them.
func testPools(t *testing.T) (shared, unique *pool) {
	t.Helper()
	poolOnce.Do(func() {
		if _, sharedPool, poolErr = newServePool(1, false); poolErr == nil {
			_, uniqPool, poolErr = newServePool(1, true)
		}
	})
	if poolErr != nil {
		t.Fatal(poolErr)
	}
	return sharedPool, uniqPool
}

func draw(g *gen, n int) []request {
	out := make([]request, n)
	for i := range out {
		out[i] = g.request()
	}
	return out
}

func TestSameSeedSameSequence(t *testing.T) {
	shared, unique := testPools(t)
	for _, tc := range []struct {
		p      *pool
		unique bool
	}{{shared, false}, {unique, true}} {
		a := draw(newGen(tc.p, 7, streamWindow, 1, tc.unique), 500)
		b := draw(newGen(tc.p, 7, streamWindow, 1, tc.unique), 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("unique=%v: one seed gave two request sequences", tc.unique)
		}
		if c := draw(newGen(tc.p, 8, streamWindow, 1, tc.unique), 500); reflect.DeepEqual(a, c) {
			t.Errorf("unique=%v: seeds 7 and 8 gave the same sequence", tc.unique)
		}
	}
}

// TestUniqueNeverRepeats draws 100k statements across the streams and
// clients of one process and requires every text to be new, and every
// spliced statement to lex into the same token kinds as its base.
func TestUniqueNeverRepeats(t *testing.T) {
	_, p := testPools(t)
	base := make(map[string][]sqllex.Kind)
	for _, its := range p.items {
		for _, it := range its {
			base[it.pre+"\x00"+it.post] = kinds(t, it.sql[0])
		}
	}
	seen := make(map[string]bool)
	const perGen = 100_000 / 8
	for _, stream := range []int{streamWindow, streamProbe, streamWarmup, streamTraced} {
		for client := 0; client < workers; client++ {
			g := newGen(p, 1, stream, client, true)
			for n := 0; n < perGen; {
				for _, sql := range g.request().sql {
					n++
					key := strings.Join(sql, "\x00")
					if seen[key] {
						t.Fatalf("text repeated after %d draws: %.120q", len(seen), sql[0])
					}
					seen[key] = true
					pre, post, _ := splitAtLiteral(sql[0])
					want, ok := base[pre+"\x00"+post]
					if !ok {
						t.Fatalf("spliced %.120q no longer splits around its literal", sql[0])
					}
					if got := kinds(t, sql[0]); !reflect.DeepEqual(got, want) {
						t.Fatalf("spliced %.120q lexes as %v, its base as %v", sql[0], got, want)
					}
				}
			}
		}
	}
}

func kinds(t *testing.T, sql string) []sqllex.Kind {
	t.Helper()
	toks, err := sqllex.Lex(sql)
	if err != nil {
		t.Fatalf("lexing %.120q: %v", sql, err)
	}
	out := make([]sqllex.Kind, len(toks))
	for i, tok := range toks {
		out[i] = tok.Kind
	}
	return out
}

func TestUniquePoolKeepsOnlyLiterals(t *testing.T) {
	shared, unique := testPools(t)
	if s := shared.literalShare; s < 0.5 || s >= 1 {
		t.Errorf("shared pool literal share %v, want some inputs without a literal", s)
	}
	for _, task := range requestTasks {
		if len(shared.items[task]) == 0 || len(unique.items[task]) == 0 {
			t.Errorf("task %s has no inputs", task)
		}
		for _, it := range unique.items[task] {
			if pre, post, ok := splitAtLiteral(it.sql[0]); !ok || pre != it.pre || post != it.post {
				t.Fatalf("%s: unique input %.120q kept without its split", task, it.sql[0])
			}
		}
	}
}
