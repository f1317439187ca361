package sim

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"
	"unicode/utf8"

	"repro/internal/catalog"
	"repro/internal/engine"
	"repro/internal/equiv"
	"repro/internal/llm"
	"repro/internal/mutate"
	"repro/internal/nlgen"
	"repro/internal/prompt"
	"repro/internal/semcheck"
	"repro/internal/sqlast"
	"repro/internal/sqllex"
	"repro/internal/sqlparse"
)

// Knowledge is the shared "pretraining" context the simulated models resolve
// queries against: the union of the workload schemas, plus per-dataset table
// sets used to infer which workload a query belongs to.
type Knowledge struct {
	Merged        *catalog.Schema
	datasetTables map[string]map[string]bool

	checker *semcheck.Checker
	facts   factCaches
}

// NewKnowledge builds the context from per-dataset schemas.
func NewKnowledge(byDataset map[string]*catalog.Schema) *Knowledge {
	var all []*catalog.Schema
	tables := make(map[string]map[string]bool, len(byDataset))
	for ds, schema := range byDataset {
		all = append(all, schema)
		set := map[string]bool{}
		for _, t := range schema.Tables() {
			set[strings.ToLower(t.Name)] = true
		}
		tables[ds] = set
	}
	merged := catalog.Merged("knowledge", all...)
	k := &Knowledge{
		Merged:        merged,
		datasetTables: tables,
		checker:       semcheck.New(merged),
	}
	k.facts.setLimit(factCacheLimit)
	return k
}

// detectDatasetTokens infers which workload a query belongs to by matching
// its identifiers against the per-dataset table sets. It takes the result
// of sqllex.LexWords(sql): a query that does not lex counts as SDSS.
func (k *Knowledge) detectDatasetTokens(toks []sqllex.Token, err error) string {
	if err != nil {
		return dsSDSS
	}
	// Only identifiers in table position (after FROM/JOIN/INTO/UPDATE/TABLE
	// or a list comma) vote, so column names that coincide with another
	// dataset's table names don't mislead.
	var tablePos []string
	for i, t := range toks {
		if t.Kind != sqllex.Ident && t.Kind != sqllex.QuotedIdent {
			continue
		}
		if i == 0 {
			continue
		}
		prev := toks[i-1]
		if prev.Is("FROM") || prev.Is("JOIN") || prev.Is("INTO") ||
			prev.Is("UPDATE") || prev.Is("TABLE") || prev.Kind == sqllex.Comma {
			tablePos = append(tablePos, strings.ToLower(t.Val()))
		}
	}
	best, bestHits := dsSDSS, 0
	// Deterministic evaluation order.
	for _, ds := range []string{dsSDSS, dsSQLShare, dsJoin, dsSpider} {
		set, ok := k.datasetTables[ds]
		if !ok {
			continue
		}
		hits := 0
		for _, name := range tablePos {
			if set[name] {
				hits++
			}
		}
		if hits > bestHits {
			best, bestHits = ds, hits
		}
	}
	return best
}

// Model is one simulated LLM.
type Model struct {
	name      string
	profile   Profile
	knowledge *Knowledge
	style     styleSet // the name's phrasing from styles
}

// New returns the named simulated model over the knowledge context.
func New(name string, k *Knowledge) (*Model, error) {
	p, ok := ProfileFor(name)
	if !ok {
		return nil, fmt.Errorf("sim: %w: %q", llm.ErrUnknownModel, name)
	}
	return NewWithProfile(name, p, k), nil
}

// NewWithProfile returns a model with a custom calibration; the ablation
// benchmarks use it to switch individual channel features off.
func NewWithProfile(name string, p Profile, k *Knowledge) *Model {
	return &Model{name: name, profile: p, knowledge: k, style: styles[name]}
}

// Registry returns all five paper models registered over shared knowledge.
func Registry(k *Knowledge) *llm.Registry {
	reg := llm.NewRegistry()
	for _, name := range llm.ModelNames {
		m, err := New(name, k)
		if err != nil {
			panic(err) // unreachable: ModelNames and profiles are aligned
		}
		reg.Register(m)
	}
	return reg
}

// Factory adapts the simulated models to the llm.Spec construction surface
// (provider "sim"). The spec's Model field selects the calibrated profile
// and must equal the spec Name: the name feeds the deterministic response
// channels, so a renamed simulator would answer differently than the paper's
// calibration.
func Factory(k *Knowledge) llm.Factory {
	return func(spec llm.Spec) (llm.Client, error) {
		profile := spec.Model
		if profile == "" {
			profile = spec.Name
		}
		if profile != spec.Name {
			return nil, fmt.Errorf("sim: model %q cannot be renamed to %q (responses are calibrated per name)", profile, spec.Name)
		}
		return New(profile, k)
	}
}

// Name implements llm.Client.
func (m *Model) Name() string { return m.name }

// Do implements llm.Client: it infers the task from the prompt, extracts the
// embedded quer(ies), runs the analyzers, applies the error channel, and
// renders a model-flavored verbose response with deterministic simulated
// token usage and latency. Cancellation is honored promptly so a cancelled
// batch stops burning work.
func (m *Model) Do(ctx context.Context, req llm.Request) (llm.Response, error) {
	if err := ctx.Err(); err != nil {
		return llm.Response{}, err
	}
	promptText := req.UserPrompt()
	text := m.answer(promptText)
	usage := llm.Usage{
		PromptTokens:     simTokens(promptText),
		CompletionTokens: simTokens(text),
	}
	finish := llm.FinishStop
	if req.MaxTokens > 0 && usage.CompletionTokens > req.MaxTokens {
		text = truncateTokens(text, req.MaxTokens)
		usage.CompletionTokens = req.MaxTokens
		finish = llm.FinishLength
	}
	return llm.Response{
		Text:         text,
		Model:        m.name,
		Usage:        usage,
		Latency:      m.simLatency(promptText, usage.CompletionTokens),
		FinishReason: finish,
	}, nil
}

// simTokens is the deterministic token estimate the simulators report: the
// conventional ~4 bytes/token heuristic, at least 1 for non-empty text.
func simTokens(s string) int {
	if s == "" {
		return 0
	}
	return (len(s) + 3) / 4
}

// truncateTokens cuts text to roughly maxTokens under the simTokens
// estimate, respecting rune boundaries — the simulated analogue of a
// provider stopping generation at the token cap.
func truncateTokens(text string, maxTokens int) string {
	limit := maxTokens * 4
	if limit >= len(text) {
		return text
	}
	for limit > 0 && !utf8.RuneStart(text[limit]) {
		limit--
	}
	return text[:limit]
}

// simLatency is the deterministic simulated wall latency: a base cost plus a
// per-token generation cost plus per-prompt jitter, all derived from the
// model's hash channels so identical requests report identical latency.
func (m *Model) simLatency(promptText string, completionTokens int) time.Duration {
	ms := 25 + 2.5*float64(completionTokens) + 50*m.unit("latency", promptText)
	return time.Duration(ms * float64(time.Millisecond))
}

// answer renders the model's response text for a prompt.
func (m *Model) answer(promptText string) string {
	r := readInstruction(prompt.Instruction(promptText))
	if !r.ok {
		return m.style.unsure
	}
	task, quality := r.task, r.quality
	switch task {
	case prompt.QueryEquiv:
		q1, q2, ok := prompt.ExtractQueryPair(promptText)
		if !ok {
			return m.style.unsure
		}
		return m.answerEquiv(q1, q2, quality)
	default:
		q, ok := prompt.ExtractQuery(promptText)
		if !ok {
			return m.style.unsure
		}
		switch task {
		case prompt.SyntaxError:
			return m.answerSyntax(q, quality)
		case prompt.MissToken:
			return m.answerMissToken(q, quality)
		case prompt.FillToken:
			return m.answerFill(q, quality)
		case prompt.PerfPred:
			return m.answerPerf(q)
		case prompt.QueryExp:
			return m.answerExplain(q)
		case prompt.TableState:
			return m.answerState(q, quality)
		}
	}
	return m.style.unsure
}

// instructionRead is what answer reads of an instruction: the task it asks
// for (ok is false when it names none) and its prompt quality.
type instructionRead struct {
	task    prompt.Task
	quality float64
	ok      bool
}

// templateReads maps every prompt.Variants text to lowerInstruction's read
// of it, so the protocol's fixed prompts are read once, at package init,
// instead of on every call. It is never written after init.
var templateReads = func() map[string]instructionRead {
	reads := map[string]instructionRead{}
	for _, task := range prompt.Tasks {
		for _, t := range prompt.Variants(task) {
			reads[t.Text] = lowerInstruction(t.Text)
		}
	}
	return reads
}()

// readInstruction reads a prompt's instruction (see prompt.Instruction):
// from templateReads when it is a template's text, and through
// lowerInstruction otherwise (few-shot preambles, custom prompts).
func readInstruction(instr string) instructionRead {
	if r, ok := templateReads[instr]; ok {
		return r
	}
	return lowerInstruction(instr)
}

// lowerInstruction reads an instruction the long way. Task detection and
// prompt quality both match lowercase wording of the instruction; the
// query after it never takes part. It is lowered once for both.
func lowerInstruction(instr string) instructionRead {
	lower := strings.ToLower(instr)
	task, ok := prompt.DetectTaskLower(lower)
	if !ok {
		return instructionRead{}
	}
	return instructionRead{task: task, quality: promptQuality(lower), ok: true}
}

// promptQuality returns an error-rate multiplier reflecting how much
// guidance the instruction gives (the effect the paper's Section 3.4 prompt
// tuning measures): the published, detailed prompts perform best; terse
// variants degrade. Detection keys on wording the variant sets use; lower is
// the prompt's instruction (with any worked examples), lowercased.
func promptQuality(lower string) float64 {
	// Worked examples sharpen the model: few-shot prompts cut error rates
	// (the mitigation the paper anticipates in its conclusion).
	if strings.Contains(lower, "example 1:") && strings.Contains(lower, "answer:") {
		return 0.55
	}
	switch {
	// Terse v3-style prompts.
	case strings.Contains(lower, "reply yes/no"),
		strings.Contains(lower, "say yes or no"),
		strings.Contains(lower, "answer yes or no"),
		strings.Contains(lower, "same results or not"),
		strings.Contains(lower, "trace the script"):
		return 1.6
	// Reworded v2-style prompts: close to the tuned one.
	case strings.Contains(lower, "you are a sql reviewer"),
		strings.Contains(lower, "report its type"),
		strings.Contains(lower, "classify the rewrite"),
		strings.Contains(lower, "runtime cost"),
		strings.Contains(lower, "execute this dml script mentally"):
		return 1.15
	default:
		return 1.0
	}
}

// ---------------------------------------------------------------------------
// Channel primitives

// The 64-bit FNV-1a parameters, as hash/fnv defines them.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// unit hashes the model name and the parts, NUL-joined, with 64-bit FNV-1a
// (the values of hash/fnv's New64a) into a deterministic uniform [0,1).
func (m *Model) unit(parts ...string) float64 { return unitOf(m.sum(parts)) }

// sum is the FNV-1a hash of the model name and the parts, NUL-joined.
func (m *Model) sum(parts []string) uint64 {
	h := fnvString(fnvOffset64, m.name)
	for _, p := range parts {
		h = fnvPart(h, p)
	}
	return h
}

// unitOf maps a hash to a uniform [0,1).
func unitOf(h uint64) float64 { return float64(h%(1<<53)) / float64(uint64(1)<<53) }

// fnvPart continues an FNV-1a hash h over a NUL separator and then s.
func fnvPart(h uint64, s string) uint64 {
	return fnvString(h*fnvPrime64, s) // the NUL: h ^= 0, then multiply
}

// fnvString continues an FNV-1a hash h over the bytes of s.
func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// gauss produces a deterministic standard normal via Box-Muller. Its two
// uniforms are unit(parts..., "g1") and unit(parts..., "g2"), finished from
// one hash of the shared prefix.
func (m *Model) gauss(parts ...string) float64 {
	h := m.sum(parts)
	u1 := unitOf(fnvPart(h, "g1"))
	u2 := unitOf(fnvPart(h, "g2"))
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// zWords standardizes a query's word count against its dataset population.
func zWords(dataset string, wordCount int) float64 {
	st, ok := datasetComplexity[dataset]
	if !ok || st.sdWords == 0 {
		return 0
	}
	z := (float64(wordCount) - st.meanWords) / st.sdWords
	if z > 2.5 {
		z = 2.5
	}
	if z < -2.5 {
		z = -2.5
	}
	return z
}

// tilt scales a base error rate by exp(alpha*z), normalized so the expected
// rate over the population stays near base.
func (m *Model) tilt(base, z float64) float64 {
	a := m.profile.Tilt
	r := base * math.Exp(a*z) / math.Exp(a*a/2)
	if r > 0.95 {
		r = 0.95
	}
	if r < 0 {
		r = 0
	}
	return r
}

// ---------------------------------------------------------------------------
// syntax_error / syntax_error_type

func (m *Model) answerSyntax(sql string, quality float64) string {
	f := m.knowledge.syntaxFacts(sql)
	dataset := f.dataset
	target := m.profile.SyntaxError[dataset]
	if target.Prec == 0 {
		target = m.profile.SyntaxError[dsSDSS]
	}
	z := zWords(dataset, f.words)
	st := &m.style

	if f.hasError {
		primary := f.primary
		weight := errorTypeWeight[dataset][primary]
		if weight == 0 {
			weight = 1
		}
		miss := m.tilt(target.missRate()*weight*quality, z)
		if m.unit("syntax", "miss", sql) < miss {
			return st.noError
		}
		reported := primary
		acc := m.profile.SyntaxTypeAcc[dataset]
		if m.unit("syntax", "type", sql) >= acc {
			if conf, ok := confusionError[primary]; ok {
				reported = conf
			}
		}
		return fmt.Sprintf(st.hasError, reported, f.detail)
	}
	fa := m.tilt(target.falseAlarmRate()*quality, z)
	if m.unit("syntax", "fa", sql) < fa {
		invented := semcheck.PaperErrorTypes[int(m.unit("syntax", "fatype", sql)*6)%6]
		return fmt.Sprintf(st.hasError, invented, "the query structure looks inconsistent")
	}
	return st.noError
}

// ---------------------------------------------------------------------------
// miss_token / miss_token_type / miss_token_loc

func (m *Model) answerMissToken(sql string, quality float64) string {
	f := m.knowledge.missingFacts(sql)
	dataset, det, words := f.dataset, f.det, f.words
	target := m.profile.MissToken[dataset]
	if target.Prec == 0 {
		target = m.profile.MissToken[dsSDSS]
	}
	z := zWords(dataset, words)
	st := &m.style

	if det.Found {
		weight := tokenKindWeight[dataset][det.Kind]
		if weight == 0 {
			weight = 1
		}
		miss := m.tilt(target.missRate()*weight*quality, z)
		if m.unit("misstok", "miss", sql) < miss {
			return st.noMissing
		}
		kind := det.Kind
		acc := m.profile.MissTokenAcc[dataset]
		if m.unit("misstok", "type", sql) >= acc {
			kind = confusionToken[kind]
		}
		pos := m.perturbPosition(det.WordIndex, words, dataset, sql)
		token := det.Inserted
		if token == "" {
			token = "(unknown)"
		}
		return fmt.Sprintf(st.missing, kind, token, pos+1) // 1-based in prose
	}
	fa := m.tilt(target.falseAlarmRate()*quality, z)
	if m.unit("misstok", "fa", sql) < fa {
		kinds := mutate.TokenKinds
		kind := kinds[int(m.unit("misstok", "fakind", sql)*float64(len(kinds)))%len(kinds)]
		pos := int(m.unit("misstok", "fapos", sql) * float64(words))
		return fmt.Sprintf(st.missing, kind, "(unclear)", pos+1)
	}
	return st.noMissing
}

// answerFill handles the fill_token task: the repair oracle proposes the
// insertion that makes the query parse again, and the model reports that
// token under its miss_token operating point. The oracle's natural error
// modes carry over — keywords repair exactly, while identifier insertions
// are often plausible-but-wrong — which is precisely the difficulty
// ordering the paper observes for token kinds.
func (m *Model) answerFill(sql string, quality float64) string {
	f := m.knowledge.missingFacts(sql)
	dataset, det := f.dataset, f.det
	target := m.profile.MissToken[dataset]
	if target.Prec == 0 {
		target = m.profile.MissToken[dsSDSS]
	}
	z := zWords(dataset, f.words)
	st := &m.style

	if det.Found {
		miss := m.tilt(target.missRate()*quality, z)
		if m.unit("fill", "miss", sql) < miss {
			return st.fillComplete
		}
		token := det.Inserted
		if token == "" {
			token = "(unknown)"
		}
		return fmt.Sprintf(st.fillMissing, token)
	}
	fa := m.tilt(target.falseAlarmRate()*quality, z)
	if m.unit("fill", "fa", sql) < fa {
		kws := []string{"AND", "WHERE", "FROM", "BY"}
		return fmt.Sprintf(st.fillMissing, kws[int(m.unit("fill", "fatok", sql)*float64(len(kws)))%len(kws)])
	}
	return st.fillComplete
}

// perturbPosition adds calibrated location noise: exact with probability HR,
// otherwise offset by a geometric magnitude whose mean reproduces the MAE.
func (m *Model) perturbPosition(truth, nwords int, dataset, sql string) int {
	loc := m.profile.TokenLoc[dataset]
	if loc.HR == 0 {
		loc = m.profile.TokenLoc[dsSDSS]
	}
	if m.unit("loc", "hit", sql) < loc.HR {
		return clampInt(truth, 0, nwords-1)
	}
	meanOffset := 1.0
	if loc.HR < 1 {
		meanOffset = loc.MAE / (1 - loc.HR)
	}
	if meanOffset < 1 {
		meanOffset = 1
	}
	// Geometric-like magnitude with the target mean.
	u := m.unit("loc", "mag", sql)
	mag := 1 + int(-math.Log(1-u)*(meanOffset-0.5))
	if m.unit("loc", "sign", sql) < 0.5 {
		mag = -mag
	}
	return clampInt(truth+mag, 0, maxInt(nwords-1, 0))
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// performance_pred

func (m *Model) answerPerf(sql string) string {
	f := m.knowledge.perfFacts(sql)
	// The simulated models judge cost from surface features — how long and
	// column-heavy the query looks — plus world knowledge of which SDSS
	// relations are production-scale (the PerfBigWeight feature; stronger
	// models weigh real scan volume more, weaker ones lean on length, which
	// produces the paper's false positives on long cheap queries).
	z := zWords(f.dataset, f.words)
	colZ := (float64(f.columns) - 8) / 8
	if colZ > 2.5 {
		colZ = 2.5
	}
	big := float64(f.big)
	score := m.profile.PerfBigWeight*big + z + 0.25*colZ + m.profile.PerfNoise*m.gauss("perf", sql)
	st := &m.style
	if score > m.profile.PerfThreshold {
		return st.slow
	}
	return st.fast
}

// bigTables are the relations every astronomy-adjacent corpus describes as
// enormous; recognizing them is world knowledge, not oracle access.
var bigTables = map[string]bool{"photoobj": true, "phototag": true, "neighbors": true}

// countBigTables counts the distinct big tables a query's tokens name.
func countBigTables(toks []sqllex.Token) int {
	seen := map[string]bool{}
	for _, t := range toks {
		if t.Kind == sqllex.Ident {
			name := strings.ToLower(t.Val())
			if bigTables[name] {
				seen[name] = true
			}
		}
	}
	return len(seen)
}

// ---------------------------------------------------------------------------
// query_equiv / query_equiv_type

func (m *Model) answerEquiv(sql1, sql2 string, quality float64) string {
	f := m.knowledge.equivFacts(sql1, sql2)
	dataset := f.dataset
	target := m.profile.QueryEquiv[dataset]
	if target.Prec == 0 {
		target = m.profile.QueryEquiv[dsSDSS]
	}
	st := &m.style
	if !f.ok {
		return st.notEquivalent
	}
	// The rolls below hash the pair as two parts; unit joins parts with a
	// NUL, so no joined copy of the pair is built.
	z := zWords(dataset, f.words)
	guessType := f.guess

	added, removed := f.added, f.removed
	sayEquivalent := false
	switch {
	case f.rule:
		// Provably equivalent under normalization: answer yes unless the
		// model's (small) residual miss rate fires.
		sayEquivalent = m.unit("equiv", "provable", sql1, sql2) >= m.tilt(target.missRate()*quality, z)
	case added+removed <= 4 || added == 0:
		// A subtle token edit (changed value/operator/aggregate/join
		// keyword) or pure deletion. The true answer is almost always "not
		// equivalent"; the calibrated false-alarm rate — tilted upward for
		// long queries — reproduces the paper's FPs on modified conditions.
		sayEquivalent = m.unit("equiv", "subtle", sql1, sql2) < m.tilt(target.falseAlarmRate()*quality, z)
	default:
		// A structural rewrite the normalizer cannot prove. Models lean
		// "equivalent" here (the paper's near-perfect recall).
		sayEquivalent = m.unit("equiv", "structural", sql1, sql2) >= m.tilt(target.missRate()*quality, z)
	}

	reported := guessType
	acc := m.profile.EquivTypeAcc[dataset]
	if m.unit("equiv", "type", sql1, sql2) >= acc {
		reported = equiv.ConfusePair(guessType)
	}
	if sayEquivalent {
		return fmt.Sprintf(st.equivalent, reported)
	}
	return st.notEquivalent + fmt.Sprintf(st.equivTypeSuffix, reported)
}

// ---------------------------------------------------------------------------
// query_exp

func (m *Model) answerExplain(sql string) string {
	f := m.knowledge.explainFacts(sql)
	if !f.ok {
		return m.style.unsure
	}
	facts := f.facts
	skill := m.profile.ExplainSkill
	opt := nlgen.RenderOptions{
		DropColumns:     m.unit("exp", "cols", sql) < (1-skill)*0.9,
		DropContext:     m.unit("exp", "ctx", sql) < (1-skill)*0.9,
		FlipSuperlative: facts.Superlative && m.unit("exp", "flip", sql) < m.profile.FlipSuperlative,
	}
	if skill < 0.8 {
		opt.MaxFilters = 1
	}
	return m.style.explainPrefix + nlgen.Render(facts, opt)
}

// ---------------------------------------------------------------------------
// table_state

// answerState traces a DML/transaction script and reports the table's final
// contents. The oracle is engine.RunScript — the executor the benchmark
// labels the task with — degraded by the calibrated channel: a
// failed trace either treats a ROLLBACK as if it committed or silently drops
// the script's last DML statement, the two error families the task is
// designed to separate.
func (m *Model) answerState(script string, quality float64) string {
	stmts, err := sqlparse.ParseAll(script)
	if err != nil {
		return m.style.unsure
	}
	st := &m.style
	errRate := (1 - m.profile.StateSkill) * quality
	if errRate > 0.95 {
		errRate = 0.95
	}
	if m.unit("state", "fail", script) < errRate {
		if m.unit("state", "mode", script) < m.profile.StateTxnConfuse {
			// Transaction-visibility slip: the ROLLBACK "commits".
			for i, s := range stmts {
				if txn, ok := s.(*sqlast.TxnStmt); ok && txn.Kind == "ROLLBACK" {
					stmts[i] = &sqlast.TxnStmt{Kind: "COMMIT"}
				}
			}
		} else {
			// Attention slip: the last DML statement never happened.
			for i := len(stmts) - 1; i >= 0; i-- {
				switch stmts[i].(type) {
				case *sqlast.InsertStmt, *sqlast.UpdateStmt, *sqlast.DeleteStmt:
					stmts = append(stmts[:i], stmts[i+1:]...)
					i = -1
				}
			}
		}
	}
	rows, err := engine.RunScript(stmts)
	if err != nil {
		return st.unsure
	}
	if len(rows) == 0 {
		return st.stateEmpty
	}
	parts := make([]string, len(rows))
	for i, row := range rows {
		parts[i] = renderStateRow(row, st.stateCompact, st.stateDouble)
	}
	return st.statePrefix + strings.Join(parts, st.stateSep)
}

// renderStateRow renders one row in the model's tuple style: spaced
// canonical form, or compact, optionally double-quoting text — the format
// variety the response parser has to canonicalize away.
func renderStateRow(row []engine.Value, compact, doubleQuote bool) string {
	parts := make([]string, len(row))
	for i, v := range row {
		lit := engine.FormatLiteral(v)
		if doubleQuote && !v.Null && v.Kind == catalog.TypeText {
			lit = `"` + v.S + `"`
		}
		parts[i] = lit
	}
	if compact {
		return "(" + strings.Join(parts, ", ") + ")"
	}
	return "( " + strings.Join(parts, " , ") + " )"
}

// ---------------------------------------------------------------------------
// Response styling

// styleSet holds the per-model response phrasing; the variety exercises the
// response post-processing layer the way real model output did in the paper.
type styleSet struct {
	noError         string
	hasError        string // args: type, detail
	noMissing       string
	missing         string // args: kind, token, position
	fillMissing     string // arg: recovered token
	fillComplete    string
	slow            string
	fast            string
	equivalent      string // arg: transformation type
	notEquivalent   string
	equivTypeSuffix string // arg: transformation type
	explainPrefix   string
	unsure          string
	statePrefix     string // leads the row list in table_state answers
	stateSep        string // joins rendered rows
	stateEmpty      string // the empty-table claim
	stateCompact    bool   // "(1, 'a')" tuples instead of "( 1 , 'a' )"
	stateDouble     bool   // double-quoted text values
}

var styles = map[string]styleSet{
	"GPT4": {
		noError:         "No, the query does not contain any syntax errors. It is well-formed SQL.",
		hasError:        "Yes, the query contains an error. **Error type:** %s. Explanation: %s.",
		noMissing:       "No, the query has no syntax errors and no missing words.",
		missing:         "Yes, there is a missing word. Type: %s. The missing word is %q, at word position %d.",
		fillMissing:     "Yes, a token is absent. The missing token is %q.",
		fillComplete:    "No, the query is complete; nothing is missing.",
		slow:            "Yes, this query will likely take longer than usual to run, given its joins and scan volume.",
		fast:            "No, this query should run quickly; it touches limited data.",
		equivalent:      "Yes, the two queries are equivalent: the rewrite is a %s transformation that preserves results.",
		notEquivalent:   "No, the two queries are not equivalent; they can return different results.",
		equivTypeSuffix: " The difference is a %s change.",
		explainPrefix:   "",
		unsure:          "I am not certain how to answer that request.",
		statePrefix:     "After running the script, the table contains the following rows:\n",
		stateSep:        "\n",
		stateEmpty:      "After running the script, the table is empty.",
	},
	"GPT3.5": {
		noError:         "No syntax errors found. The query looks fine.",
		hasError:        "Yes. There is a problem with this query (%s): %s.",
		noMissing:       "No. The query appears complete, with no missing words.",
		missing:         "Yes, a word is missing. It looks like a %s. Missing word: %q. Position: word %d.",
		fillMissing:     "Yes. Missing token: %q.",
		fillComplete:    "No. The query is complete.",
		slow:            "Yes, I think this query takes longer than usual.",
		fast:            "No, it should be fast.",
		equivalent:      "Yes, they are equivalent (%s rewrite).",
		notEquivalent:   "No, these queries are not equivalent.",
		equivTypeSuffix: " The change looks like %s.",
		explainPrefix:   "",
		unsure:          "Sorry, I could not process that.",
		statePrefix:     "Final rows: ",
		stateSep:        " ",
		stateEmpty:      "The table ends up empty.",
		stateCompact:    true,
	},
	"Llama3": {
		noError:         "Based on my analysis, there are no syntax errors in this query.",
		hasError:        "Based on my analysis, yes — the query has an error. Error type: %s. Details: %s.",
		noMissing:       "Based on my analysis, nothing is missing from this query.",
		missing:         "Based on my analysis, yes — a token is missing. Kind: %s, token %q, around word %d.",
		fillMissing:     "Based on my analysis, the missing token is %q.",
		fillComplete:    "Based on my analysis, the query is complete.",
		slow:            "Yes — this looks like a heavy query that takes longer than usual.",
		fast:            "No — this looks like a light query.",
		equivalent:      "Yes — the queries are equivalent; this is a %s transformation.",
		notEquivalent:   "No — the queries differ in their results.",
		equivTypeSuffix: " It appears to be a %s modification.",
		explainPrefix:   "",
		unsure:          "I am unable to determine that.",
		statePrefix:     "Based on my analysis, the final contents are: ",
		stateSep:        ", ",
		stateEmpty:      "Based on my analysis, the table has no rows at the end.",
		stateDouble:     true,
	},
	"MistralAI": {
		noError:         "no error",
		hasError:        "yes; type=%s; detail=%s",
		noMissing:       "no; nothing missing",
		missing:         "yes; kind=%s; token=%s; position=%d",
		fillMissing:     "yes; token=%s",
		fillComplete:    "no; complete",
		slow:            "yes; high cost",
		fast:            "no; low cost",
		equivalent:      "equivalent; type=%s",
		notEquivalent:   "not equivalent",
		equivTypeSuffix: "; type=%s",
		explainPrefix:   "",
		unsure:          "unknown",
		statePrefix:     "rows: ",
		stateSep:        " ",
		stateEmpty:      "empty",
		stateCompact:    true,
	},
	"Gemini": {
		noError:         "The query appears to be free of syntax errors.",
		hasError:        "The query appears to contain a %s error. %s.",
		noMissing:       "The query does not appear to be missing any words.",
		missing:         "The query appears to be missing a %s (%q) near word %d.",
		fillMissing:     "The query appears to be missing the token %q.",
		fillComplete:    "The query appears to be complete.",
		slow:            "This query is likely to take longer than usual.",
		fast:            "This query is unlikely to take longer than usual.",
		equivalent:      "The two queries appear to be equivalent (a %s rewrite).",
		notEquivalent:   "The two queries do not appear to be equivalent.",
		equivTypeSuffix: " The modification resembles %s.",
		explainPrefix:   "",
		unsure:          "Unable to answer.",
		statePrefix:     "The table appears to end with these rows: ",
		stateSep:        " and ",
		stateEmpty:      "The table appears to contain no rows after the script runs.",
		stateDouble:     true,
	},
}
