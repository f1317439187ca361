package sqllex

import (
	"reflect"
	"strings"
	"testing"
)

func TestBufferLexWordsMatchesLexWords(t *testing.T) {
	b := GetBuffer()
	defer b.Release()
	for _, src := range []string{
		"SELECT a , b FROM t WHERE x > 1",
		"SELECT a -- trailing comment\nFROM t /* block */ WHERE [odd name] = 'it''s'",
		"SELECT 1",
		"",
		"SELECT 'unterminated",
		"SELECT a FROM t",
	} {
		want, wantErr := LexWords(src)
		got, err := b.LexWords(src)
		if (err == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: Buffer.LexWords = %v, %v; LexWords = %v, %v", src, got, err, want, wantErr)
		}
	}
}

// TestBufferReuse checks that a released buffer comes back from the free
// list with its storage kept but its tokens zeroed, so it pins no text.
func TestBufferReuse(t *testing.T) {
	b := GetBuffer()
	if _, err := b.LexWords("SELECT a , b , c FROM t WHERE x = 1"); err != nil {
		t.Fatal(err)
	}
	b.Release()
	again := GetBuffer()
	defer again.Release()
	if again != b {
		t.Fatal("a released buffer under the cap was not reused")
	}
	if cap(again.toks) == 0 {
		t.Fatal("the reused buffer lost its storage")
	}
	for i, tok := range again.toks[:cap(again.toks)] {
		if tok != (Token{}) {
			t.Fatalf("token %d of a released buffer not zeroed: %+v", i, tok)
		}
	}
}

func TestBufferOverCapNotKept(t *testing.T) {
	b := GetBuffer()
	long := "SELECT " + strings.Repeat("a , ", maxBufferTokens) + "a FROM t"
	toks, err := b.LexWords(long)
	if err != nil {
		t.Fatal(err)
	}
	if len(toks) <= maxBufferTokens {
		t.Fatalf("test text lexes to %d tokens, want more than %d", len(toks), maxBufferTokens)
	}
	b.Release()
	next := GetBuffer()
	defer next.Release()
	if next == b || cap(next.toks) > maxBufferTokens {
		t.Fatalf("a buffer of %d tokens went back to the free list (cap %d)", cap(b.toks), maxBufferTokens)
	}
}
