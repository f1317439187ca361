package sqllex_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/sqllex"
)

// tokenStreamGolden is the SHA-256 of every token Lex produces over
// streamCorpus: each token's kind, text, offset, line, column and word
// index, and each error Lex returns. It was captured before the token
// layout, the identifier tables and the run-skipping scans went in, so any
// of them that moves a single token field fails the test.
const tokenStreamGolden = "fc915022561034a11ced20f75e0fbc5ad803759ba9eec758c490be1ab5f18a85"

// hostileCorpus exercises the lexer paths the seed workloads rarely or
// never reach. It holds no number followed by an E that does not start an
// exponent: the column fix for that case changed its positions on purpose
// (TestLexNumberExponentBackoutColumns pins them).
func hostileCorpus() []string {
	var out []string
	// Every high byte in identifier position, start and middle: the bytes
	// are read as Latin-1 code points, so some are letters and the rest
	// fail to lex.
	for c := 0x80; c <= 0xff; c++ {
		b := string([]byte{byte(c)})
		out = append(out,
			"SELECT "+b+"x FROM t",
			"SELECT a"+b+"b, c FROM t"+b,
			"SELECT x\nFROM t WHERE @v"+b+"w = 1",
		)
	}
	return append(out,
		"SELECT a,\r\n  b\r\nFROM t\r\nWHERE c = 1\r\n",
		"SELECT 'line one\nline two' AS s, x\nFROM t",
		"SELECT a -- trailing comment\n, b /* block\n spanning\n lines */ FROM t",
		"SELECT [my\ncolumn], \"other\n\"\"name\" FROM [a\r\nb]",
		"DECLARE @x INT\nSET @x = @@rowcount + @@ERROR\nSELECT @x, @@version",
		"SELECT _a#b$c, #tmp, a1b2 FROM t$1 WHERE x$ = 1",
		"SELECT 1.5e3, .5, 1., 2E-7, 3e+2, 10.25 FROM t",
		"SELECT\ta\t,\tb FROM t WHERE a<>b AND b!=c OR c<=d || e >= f",
		"SELECT 'unterminated",
		"SELECT a FROM t WHERE s = 'it''s\nopen",
		"SELECT \"unterminated\nident",
		"SELECT [unterminated\nbracket",
		"SELECT a /* unterminated\ncomment",
		"SELECT a FROM t WHERE z ~ 1",
		"SELECT a\nFROM t WHERE b = ?",
		"",
		"   \n\t  ",
	)
}

// streamCorpus is every workload query and every cell input of seeds 1
// and 2 (verified builds, as sqlbench runs them) followed by hostileCorpus.
func streamCorpus(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, seed := range []int64{1, 2} {
		b, err := core.Build(core.BuildConfig{Seed: seed, VerifyEquivalences: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range workloadNames(b) {
			for _, q := range b.Workloads[name].Queries {
				out = append(out, q.SQL)
			}
		}
		for _, task := range core.Tasks() {
			for _, ds := range task.Datasets() {
				examples, _ := task.Cell(b, ds)
				for _, ex := range examples {
					out = append(out, ex.SQL...)
				}
			}
		}
	}
	return append(out, hostileCorpus()...)
}

// workloadNames returns the names of b's workloads in sorted order.
func workloadNames(b *core.Benchmark) []string {
	names := make([]string, 0, len(b.Workloads))
	for name := range b.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func writeStream(h hash.Hash, src string) {
	toks, err := sqllex.Lex(src)
	fmt.Fprintf(h, "%d\x00%s\x00", len(src), src)
	for _, tok := range toks {
		fmt.Fprintf(h, "%d\x00%s\x00%d %d %d %d\n",
			int(tok.Kind), tok.Text, tok.Pos.Offset, tok.Pos.Line, tok.Pos.Col, tok.Word)
	}
	if err != nil {
		fmt.Fprintf(h, "error\x00%s\n", err)
	}
}

// checkLexWords fails t unless LexWords(src) is Lex(src) without its
// comments, or the same error.
func checkLexWords(t *testing.T, src string) {
	t.Helper()
	toks, err := sqllex.Lex(src)
	words, wordsErr := sqllex.LexWords(src)
	if err != nil {
		if wordsErr == nil || wordsErr.Error() != err.Error() {
			t.Errorf("LexWords(%q) error = %v, want %v", src, wordsErr, err)
		}
		return
	}
	var want []sqllex.Token
	for _, tok := range toks {
		if tok.Kind != sqllex.Comment {
			want = append(want, tok)
		}
	}
	if !reflect.DeepEqual(words, want) && len(words)+len(want) > 0 {
		t.Errorf("LexWords(%q) = %v, want %v", src, words, want)
	}
}

func TestTokenStreamGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two verified environments")
	}
	corpus := streamCorpus(t)
	h := sha256.New()
	for _, src := range corpus {
		writeStream(h, src)
		checkLexWords(t, src)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != tokenStreamGolden {
		t.Errorf("token stream over %d texts: digest = %s, want %s", len(corpus), got, tokenStreamGolden)
	}
}

// Lex sizes its token slice up front, so lexing a typical query allocates
// the slice and nothing else: the first query of every seed-1 workload
// allocates exactly once, and so do at least 95% of all of them.
func TestLexAllocatesOnce(t *testing.T) {
	b, err := core.Build(core.BuildConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	once, total := 0, 0
	for _, name := range workloadNames(b) {
		for i, q := range b.Workloads[name].Queries {
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := sqllex.Lex(q.SQL); err != nil {
					t.Fatalf("Lex(%q): %v", q.SQL, err)
				}
			})
			if i == 0 && allocs != 1 {
				t.Errorf("%s: Lex(%q) allocates %v times, want 1", name, q.SQL, allocs)
			}
			total++
			if allocs == 1 {
				once++
			}
		}
	}
	if once*100 < total*95 {
		t.Errorf("%d of %d seed-1 workload queries lex with one allocation, want at least 95%%", once, total)
	}
}
