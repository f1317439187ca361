package sim

import (
	"crypto/sha256"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"repro/internal/llm"
	"repro/internal/prompt"
)

// Three parts of the per-call path have a plainer reference form that the
// tests below compare them against: the instruction table (lowering every
// instruction), the inline FNV-1a loop (hash/fnv) and the stack-buffer
// digests (hashing a heap copy).

// loweredRead is the reference reading of an instruction: strings.ToLower,
// then prompt.DetectTaskLower, then promptQuality.
func loweredRead(instr string) instructionRead {
	lower := strings.ToLower(instr)
	task, ok := prompt.DetectTaskLower(lower)
	if !ok {
		return instructionRead{}
	}
	return instructionRead{task: task, quality: promptQuality(lower), ok: true}
}

// templateTexts returns the instruction of every prompt.Variants template.
func templateTexts() []string {
	var texts []string
	for _, task := range prompt.Tasks {
		for _, t := range prompt.Variants(task) {
			texts = append(texts, t.Text)
		}
	}
	return texts
}

func TestReadInstructionTemplates(t *testing.T) {
	texts := templateTexts()
	if len(texts) != 21 || len(templateReads) != len(texts) {
		t.Fatalf("%d templates, %d table entries; want 21 of each", len(texts), len(templateReads))
	}
	for _, task := range prompt.Tasks {
		for _, tpl := range prompt.Variants(task) {
			got := readInstruction(prompt.Instruction(tpl.Render("SELECT plate FROM SpecObj")))
			if got != loweredRead(tpl.Text) || !got.ok || got.task != task {
				t.Errorf("%s: readInstruction = %+v, lowering path %+v", tpl.ID, got, loweredRead(tpl.Text))
			}
		}
	}
}

// Instructions that are no template's text take the lowering path: few-shot
// preambles, other casings, and runes that strings.ToLower maps into ASCII
// cue words (U+212A KELVIN SIGN to "k", U+0130 to "i").
func TestReadInstructionOffTable(t *testing.T) {
	shots := []prompt.Shot{{SQL: "SELECT plate FROM SpecObj", Answer: "No."}}
	cases := map[string]prompt.Task{
		"K":                                  "", // no cue at all
		"Check the toKen is missing, or not": prompt.MissToken,
		"is this query valİd?":               prompt.SyntaxError,
		"Provide a single statement descrİbing this query:":            prompt.QueryExp,
		"WILL THIS QUERY BE SLOW? ANSWER YES OR NO.":                   prompt.PerfPred,
		"dOES tHE fOLLOWING qUERY tAKE lONGER tHAN uSUAL tO rUN?":      prompt.PerfPred,
		"One toKen may be absent. Reply with the exact missing toKen.": prompt.FillToken,
	}
	for _, task := range prompt.Tasks {
		for _, tpl := range prompt.Variants(task) {
			cases[strings.ToUpper(tpl.Text)] = task
			tpl.Shots = shots
			cases[prompt.Instruction(tpl.Render("SELECT 1"))] = task
		}
	}
	for instr, task := range cases {
		if _, ok := templateReads[instr]; ok {
			t.Fatalf("%q is in the table", instr)
		}
		got := readInstruction(instr)
		if got != loweredRead(instr) || got.task != task || got.ok != (task != "") {
			t.Errorf("%q: readInstruction = %+v, lowering path %+v, want task %q", instr, got, loweredRead(instr), task)
		}
		if strings.Contains(instr, "Example 1:") && got.quality != 0.55 {
			t.Errorf("%q: few-shot quality = %v, want 0.55", instr, got.quality)
		}
	}
}

func FuzzReadInstruction(f *testing.F) {
	for _, text := range templateTexts() {
		f.Add(text)
	}
	f.Add("toKen is missing")
	f.Fuzz(func(t *testing.T, instr string) {
		if got, want := readInstruction(instr), loweredRead(instr); got != want {
			t.Errorf("%q: readInstruction = %+v, lowering path %+v", instr, got, want)
		}
	})
}

// fnvUnit is unit computed with hash/fnv.
func fnvUnit(name string, parts ...string) float64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	for _, p := range parts {
		h.Write([]byte{0})
		h.Write([]byte(p))
	}
	return float64(h.Sum64()%(1<<53)) / float64(uint64(1)<<53)
}

func TestUnitMatchesFNV(t *testing.T) {
	long := strings.Repeat("SELECT plate, mjd FROM SpecObj WHERE z > 0.5 -- é\x00", 40)
	partLists := [][]string{
		nil,
		{""},
		{"", ""},
		{"latency", long},
		{"syntax", "miss", "SELECT * FROM t"},
		{"equiv", "subtle", long, long[:7]},
		{"\x00", "\xff\xfe", "日本語"},
	}
	for _, name := range append([]string{"", "custom"}, llm.ModelNames...) {
		m := NewWithProfile(name, Profile{}, nil)
		for _, parts := range partLists {
			if got, want := m.unit(parts...), fnvUnit(name, parts...); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%q %q: unit = %v, hash/fnv %v", name, parts, got, want)
			}
		}
	}
}

func TestDigestMatchesSHA256(t *testing.T) {
	var b strings.Builder
	for b.Len() < 64<<10 {
		b.WriteString("SELECT p.ra FROM PhotoObj p WHERE p.ra > 180 \x00 é;")
	}
	text := b.String()[:64<<10]
	for _, n := range []int{0, digestBuf - 1, digestBuf, digestBuf + 1, 64 << 10} {
		s := text[:n]
		if got, want := digestOf(s), digest(sha256.Sum256([]byte(s))); got != want {
			t.Errorf("digestOf, length %d: %x, want %x", n, got, want)
		}
		// Pairs whose NUL-joined text is n bytes long (and, for n = 0, the
		// pair of empty texts).
		splits := [][2]string{{"", ""}}
		if n > 0 {
			splits = [][2]string{{"", s[1:]}, {s[:n/2], s[n/2+1:]}, {s[:n-1], ""}}
		}
		for _, p := range splits {
			joined := p[0] + "\x00" + p[1]
			if got, want := pairDigest(p[0], p[1]), digest(sha256.Sum256([]byte(joined))); got != want {
				t.Errorf("pairDigest, lengths %d+1+%d: %x, want %x", len(p[0]), len(p[1]), got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(10, func() { digestSink = digestOf(text[:digestBuf]) }); n != 0 {
		t.Errorf("digestOf of %d bytes allocates %v times, want 0", digestBuf, n)
	}
	if n := testing.AllocsPerRun(10, func() { digestSink = pairDigest(text[:digestBuf/2], text[:digestBuf/2-1]) }); n != 0 {
		t.Errorf("pairDigest of %d bytes allocates %v times, want 0", digestBuf, n)
	}
}

// digestSink keeps the measured digests observable.
var digestSink digest

// TestCachedAnswerAllocs bounds the allocations of a warm answer (every
// fact already cached) to what rendering its response text takes: none
// for a fixed phrase (the syntax and performance_pred answers), and the fmt.Sprintf result and its boxed argument
// for an equiv answer naming the rewrite type.
func TestCachedAnswerAllocs(t *testing.T) {
	m, err := New("GPT4", knowledge())
	if err != nil {
		t.Fatal(err)
	}
	const sql1 = "SELECT p.objid, p.ra FROM PhotoObj p WHERE p.ra > 180 AND p.dec < 0"
	const sql2 = "SELECT p.objid, p.ra FROM PhotoObj p WHERE p.dec < 0 AND p.ra > 180"
	for _, c := range []struct {
		what   string
		prompt string
		max    float64
	}{
		{"syntax", prompt.Default(prompt.SyntaxError).Render(sql1), 0},
		{"equiv", prompt.Default(prompt.QueryEquiv).RenderPair(sql1, sql2), 2},
		{"performance_pred", prompt.Default(prompt.PerfPred).Render(sql1), 0},
	} {
		answerSink = m.answer(c.prompt) // warm the fact caches
		if n := testing.AllocsPerRun(50, func() { answerSink = m.answer(c.prompt) }); n > c.max {
			t.Errorf("warm %s answer allocates %v times, want at most %v", c.what, n, c.max)
		}
	}
}
