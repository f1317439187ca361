package repair

import (
	"strings"
	"testing"

	"repro/internal/mutate"
	"repro/internal/sqllex"
)

// TestDetectAllocsWarm bounds a Detect whose token buffer and search
// scratch come from warm free lists. What remains is the first parse's
// partial tree and error, and one ParseError per candidate that fails to
// parse: recognizing a candidate builds no tree and formats no message.
func TestDetectAllocsWarm(t *testing.T) {
	const sql = "SELECT plate FROM SpecObj WHERE z 0.5"
	want := Result{Found: true, Kind: mutate.TokComparison, WordIndex: 6, Inserted: "="}
	if got := Detect(sql, nil); got != want {
		t.Fatalf("Detect(%q) = %+v, want %+v", sql, got, want)
	}
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	if got := testing.AllocsPerRun(50, func() { Detect(sql, nil) }); got > detectAllocs {
		t.Errorf("warm Detect allocates %.0f times, want at most %d", got, detectAllocs)
	}
}

const detectAllocs = 72

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestScratchReuse checks that the scratch a search released comes back
// from the free list with its buffer zeroed, and that a search over it
// repairs as the first one did.
func TestScratchReuse(t *testing.T) {
	const sql = "SELECT a , b FROM t WHERE c 1"
	first := Detect(sql, nil)
	sc := scratches.Get()
	if cap(sc.buf) == 0 {
		t.Fatal("the free list did not return the scratch the search released")
	}
	for i, tok := range sc.buf[:cap(sc.buf)] {
		if tok != (sqllex.Token{}) {
			t.Fatalf("token %d of a released scratch not zeroed: %+v", i, tok)
		}
	}
	sc.release()
	if got := Detect(sql, nil); got != first {
		t.Errorf("Detect over a reused scratch = %+v, want %+v", got, first)
	}
}

func TestScratchOverCapNotKept(t *testing.T) {
	long := "SELECT " + strings.Repeat("a , ", maxScratchTokens) + "a FROM t WHERE b 1"
	if r := Detect(long, nil); !r.Found {
		t.Fatalf("Detect(long) = %+v", r)
	}
	sc := scratches.Get()
	defer sc.release()
	if cap(sc.buf) > maxScratchTokens {
		t.Fatalf("a scratch of %d tokens went back to the free list (cap %d)", cap(sc.buf), maxScratchTokens)
	}
}
