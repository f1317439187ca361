// Package core implements the paper's primary contribution: the SQL
// task-driven benchmark. It assembles labeled datasets from the workload
// generators (error injection, token removal, equivalence pairs, runtime
// labels, explanation references), drives models through the prompt →
// complete → post-process pipeline, and aggregates the evaluation
// dimensions the paper reports on (model comparison, workload properties,
// task types).
package core

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/analyze"
	"repro/internal/catalog"
	"repro/internal/datagen"
	"repro/internal/engine"
	"repro/internal/equiv"
	"repro/internal/mutate"
	"repro/internal/nlgen"
	"repro/internal/runner"
	"repro/internal/semcheck"
	"repro/internal/sqlast"
	"repro/internal/sqlparse"
	"repro/internal/workload"
	"repro/internal/workload/joborder"
	"repro/internal/workload/sdss"
	"repro/internal/workload/spider"
	"repro/internal/workload/sqlshare"
)

// Dataset names.
const (
	SDSS      = "SDSS"
	SQLShare  = "SQLShare"
	JoinOrder = "Join-Order"
	Spider    = "Spider"
)

// TaskDatasets lists the datasets used by the classification tasks
// (everything except query_exp, which uses Spider).
var TaskDatasets = []string{SDSS, SQLShare, JoinOrder}

// SyntaxExample is one labeled query for syntax_error / syntax_error_type.
type SyntaxExample struct {
	ID       string
	SQL      string
	HasError bool
	Type     semcheck.Code // "" for clean queries
	Props    analyze.Properties
}

// TokenExample is one labeled query for the miss_token tasks.
type TokenExample struct {
	ID       string
	SQL      string // possibly damaged
	Missing  bool
	Kind     mutate.TokenKind // "" when intact
	Position int              // 0-based word index; -1 when intact
	Removed  string
	Props    analyze.Properties // of the original query
}

// EquivExample is one labeled pair for query_equiv / query_equiv_type.
type EquivExample struct {
	ID         string
	SQL1, SQL2 string
	Equivalent bool
	Type       equiv.Type
	Props      analyze.Properties // of the left query
}

// PerfExample is one labeled query for performance_pred.
type PerfExample struct {
	ID        string
	SQL       string
	Costly    bool
	ElapsedMS float64
	Props     analyze.Properties
}

// StateExample is one labeled script for the state task: a self-contained
// CREATE + DML/transaction script and the table's final contents, obtained
// by executing the script on the engine's MemStore.
type StateExample struct {
	ID     string
	Script string   // canonical single-line script, statements joined by " ; "
	Table  string   // the table the script creates and modifies
	Want   []string // final rows in canonical "( 1 , 'alpha' )" form, sorted
}

// ExplainExample is one reference-bearing query for query_exp.
type ExplainExample struct {
	ID          string
	SQL         string
	Description string // workload ground truth
	Facts       nlgen.Facts
	Props       analyze.Properties
}

// Benchmark is the full labeled benchmark.
type Benchmark struct {
	Workloads map[string]*workload.Workload
	Syntax    map[string][]SyntaxExample
	Tokens    map[string][]TokenExample
	Equiv     map[string][]EquivExample
	Perf      []PerfExample
	Explain   []ExplainExample
	State     map[string][]StateExample
	// EngineOps records, per dataset, the engine row operations executed
	// while verifying equivalence pairs (zero when verification is off) —
	// the per-task work counter cmd/sqlbench -stats reports.
	EngineOps map[string]int64
}

// BuildConfig controls benchmark construction.
type BuildConfig struct {
	// Seed drives workload generation and mutation choices.
	Seed int64
	// VerifyEquivalences runs generated equivalence pairs through the
	// execution engine and drops pairs whose label cannot be confirmed
	// empirically. Slower but guarantees label integrity (default on via
	// Build; disable for quick runs).
	VerifyEquivalences bool
	// Parallel bounds the worker pool used for the per-dataset build stages
	// and the equivalence-verification fan-out. 0 means GOMAXPROCS; 1 forces
	// a sequential build. Output is byte-identical at every setting: each
	// dataset derives its own rand.Rand from Seed, exactly as the sequential
	// build always has, so scheduling never reaches the random streams.
	Parallel int
	// Ctx, when set, is the base context for the build's internal fan-out —
	// it carries an obs tracer/span so engine executions during equivalence
	// verification appear in the trace. It is never used for cancellation;
	// builds always run to completion for determinism.
	Ctx context.Context
	// NoOptimize verifies equivalence pairs with the engine's plan optimizer
	// off. Pair selection and every downstream artifact are byte-identical
	// either way; the switch exists for ablation and differential testing.
	NoOptimize bool
}

// Build assembles the benchmark deterministically.
func Build(cfg BuildConfig) (*Benchmark, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	base := cfg.Ctx
	if base == nil {
		base = context.Background()
	}
	ctx := runner.WithParallelism(base, cfg.Parallel)

	// Stage 1: the four workload generators are independent of one another.
	type gen struct {
		name string
		gen  func(int64) *workload.Workload
	}
	gens := []gen{
		{SDSS, sdss.Generate},
		{SQLShare, sqlshare.Generate},
		{JoinOrder, joborder.Generate},
		{Spider, spider.Generate},
	}
	wls, err := runner.Map(ctx, 0, gens, func(_ context.Context, _ int, g gen) (*workload.Workload, error) {
		return g.gen(cfg.Seed), nil
	})
	if err != nil {
		return nil, err
	}
	b := &Benchmark{
		Workloads: make(map[string]*workload.Workload, len(gens)),
		Syntax:    map[string][]SyntaxExample{},
		Tokens:    map[string][]TokenExample{},
		Equiv:     map[string][]EquivExample{},
	}
	for i, g := range gens {
		b.Workloads[g.name] = wls[i]
	}

	// Stage 2: label the task datasets. Datasets run concurrently; within a
	// dataset the syntax → tokens → equiv stages stay sequential because they
	// consume one shared rand stream.
	type labeled struct {
		syntax    []SyntaxExample
		tokens    []TokenExample
		equiv     []EquivExample
		engineOps int64
	}
	outs, err := runner.Map(ctx, 0, TaskDatasets, func(ctx context.Context, _ int, ds string) (labeled, error) {
		w := b.Workloads[ds]
		r := rand.New(rand.NewSource(cfg.Seed ^ int64(len(ds))*7919))
		var l labeled
		l.syntax = buildSyntax(w, r)
		l.tokens = buildTokens(w, r)
		pairs, ops, err := buildEquiv(ctx, w, r, cfg.VerifyEquivalences, cfg.NoOptimize)
		if err != nil {
			return labeled{}, fmt.Errorf("building %s equivalence pairs: %w", ds, err)
		}
		l.equiv = pairs
		l.engineOps = ops
		return l, nil
	})
	if err != nil {
		return nil, err
	}
	b.EngineOps = make(map[string]int64, len(TaskDatasets))
	for i, ds := range TaskDatasets {
		b.Syntax[ds] = outs[i].syntax
		b.Tokens[ds] = outs[i].tokens
		b.Equiv[ds] = outs[i].equiv
		b.EngineOps[ds] = outs[i].engineOps
	}
	b.Perf = buildPerf(b.Workloads[SDSS])
	b.Explain = buildExplain(b.Workloads[Spider])

	// Stage 3: the state task's scripts, labeled by executing each one on the
	// engine's MemStore. Each dataset derives an independent rand stream
	// (seed hashed with the stage name) so adding this stage leaves every
	// stage-2 artifact byte-identical to pre-state builds.
	b.State = map[string][]StateExample{}
	states, err := runner.Map(ctx, 0, TaskDatasets, func(_ context.Context, _ int, ds string) ([]StateExample, error) {
		h := fnv.New64a()
		h.Write([]byte("state/" + ds))
		r := rand.New(rand.NewSource(cfg.Seed ^ int64(h.Sum64())))
		exs, err := buildState(b.Workloads[ds], r, ds)
		if err != nil {
			return nil, fmt.Errorf("building %s state scripts: %w", ds, err)
		}
		return exs, nil
	})
	if err != nil {
		return nil, err
	}
	for i, ds := range TaskDatasets {
		b.State[ds] = states[i]
	}
	return b, nil
}

// stateScriptsPerDataset sizes each dataset's state cell.
const stateScriptsPerDataset = 24

// buildState generates DML/transaction scripts and labels each with the
// table's final contents by executing it with engine.RunScript — the engine
// is the task's ground-truth oracle, exactly as it is for equivalence pairs.
// Rows are canonicalized and sorted, so the label does not depend on the
// order the script left them in.
func buildState(w *workload.Workload, r *rand.Rand, ds string) ([]StateExample, error) {
	tables := w.Schema.Tables()
	var out []StateExample
	for i := 0; i < stateScriptsPerDataset; i++ {
		donor := tables[i%len(tables)]
		sc := datagen.GenScript(donor, r)
		db, err := engine.RunScript(sc.Stmts)
		if err != nil {
			return nil, fmt.Errorf("script %d: %w", i, err)
		}
		rel, ok := db.Table(sc.Table)
		if !ok {
			return nil, fmt.Errorf("script %d left no table %q", i, sc.Table)
		}
		want := make([]string, len(rel.Rows))
		for j, row := range rel.Rows {
			want[j] = engine.FormatRow(row)
		}
		sort.Strings(want)
		out = append(out, StateExample{
			ID:     fmt.Sprintf("%s-%03d/state", strings.ToLower(ds), i),
			Script: sc.SQL,
			Table:  sc.Table,
			Want:   want,
		})
	}
	return out, nil
}

// buildSyntax labels half the workload with injected errors, cycling the six
// error types for balance, and keeps the other half clean.
func buildSyntax(w *workload.Workload, r *rand.Rand) []SyntaxExample {
	var out []SyntaxExample
	typeCursor := 0
	types := semcheck.PaperErrorTypes
	for i, q := range w.Queries {
		ex := SyntaxExample{
			ID:    fmt.Sprintf("%s/syn", q.ID),
			SQL:   q.SQL,
			Props: q.Props,
		}
		if i%2 == 0 {
			// Try the next types in rotation until one applies.
			injected := false
			for attempt := 0; attempt < len(types); attempt++ {
				code := types[(typeCursor+attempt)%len(types)]
				inj, ok := mutate.InjectError(q.Stmt, w.Schema, code, r)
				if !ok {
					continue
				}
				typeCursor = (typeCursor + attempt + 1) % len(types)
				ex.SQL = inj.SQL
				ex.HasError = true
				ex.Type = inj.Type
				injected = true
				break
			}
			if !injected {
				// No applicable injection (e.g. DECLARE): keep clean.
				ex.HasError = false
			}
		}
		out = append(out, ex)
	}
	return out
}

// buildTokens removes one token from half the workload, cycling the six
// kinds. A removal must be observable — the damaged query either fails to
// parse or trips the semantic checker — otherwise the "missing" label would
// be unfalsifiable (removing the AS keyword, say, leaves a legal query).
func buildTokens(w *workload.Workload, r *rand.Rand) []TokenExample {
	var out []TokenExample
	kinds := mutate.TokenKinds
	checker := semcheck.New(w.Schema)
	cursor := 0
	for i, q := range w.Queries {
		ex := TokenExample{
			ID:       fmt.Sprintf("%s/tok", q.ID),
			SQL:      q.SQL,
			Position: -1,
			Props:    q.Props,
		}
		if i%2 == 0 {
			for attempt := 0; attempt < len(kinds); attempt++ {
				kind := kinds[(cursor+attempt)%len(kinds)]
				rem, ok := mutate.RemoveToken(q.SQL, q.Stmt, kind, r)
				if !ok {
					continue
				}
				if len(checker.CheckSQL(rem.SQL)) == 0 {
					continue // removal left a clean query: not observable
				}
				cursor = (cursor + attempt + 1) % len(kinds)
				ex.SQL = rem.SQL
				ex.Missing = true
				ex.Kind = rem.Kind
				ex.Position = rem.WordIndex
				ex.Removed = rem.Removed
				break
			}
		}
		out = append(out, ex)
	}
	return out
}

// buildEquiv derives labeled pairs: equivalence types on even queries,
// non-equivalence types on odd ones. Equivalence-labeled pairs are
// optionally verified with the execution engine; unverifiable pairs fall
// back to the next applicable type. The second result is the engine row
// operations the verification executed (zero when verify is off).
func buildEquiv(ctx context.Context, w *workload.Workload, r *rand.Rand, verify, noOptimize bool) ([]EquivExample, int64, error) {
	eqTypes := equiv.EquivTypes()
	neTypes := equiv.NonEquivTypes()
	var checker *equiv.Checker
	if verify {
		checker = equiv.NewChecker(w.Schema)
		checker.Seeds = []int64{11, 29}
		checker.Parallel = runner.Parallelism(ctx)
		checker.NoOptimize = noOptimize
	}
	var out []EquivExample
	eqCursor, neCursor := 0, 0
	for i, q := range w.Queries {
		sel, ok := q.Stmt.(*sqlast.SelectStmt)
		if !ok {
			continue
		}
		wantEquiv := i%2 == 0
		var pair *EquivExample
		if wantEquiv {
			for attempt := 0; attempt < len(eqTypes); attempt++ {
				typ := eqTypes[(eqCursor+attempt)%len(eqTypes)]
				out2, ok := equiv.Transform(sel, typ, r)
				if !ok {
					continue
				}
				printed := sqlast.Print(out2)
				if _, err := sqlparse.ParseSelect(printed); err != nil {
					return nil, 0, fmt.Errorf("transform %s produced unparsable SQL %q: %w", typ, printed, err)
				}
				if verify {
					equal, err := checker.EquivalentCtx(ctx, sel, out2)
					if err != nil || !equal {
						continue // unverifiable pair: try another type
					}
				}
				eqCursor = (eqCursor + attempt + 1) % len(eqTypes)
				pair = &EquivExample{
					SQL1: q.SQL, SQL2: printed,
					Equivalent: true, Type: typ,
				}
				break
			}
		} else {
			for attempt := 0; attempt < len(neTypes); attempt++ {
				typ := neTypes[(neCursor+attempt)%len(neTypes)]
				out2, ok := equiv.Transform(sel, typ, r)
				if !ok {
					continue
				}
				printed := sqlast.Print(out2)
				if _, err := sqlparse.ParseSelect(printed); err != nil {
					return nil, 0, fmt.Errorf("transform %s produced unparsable SQL %q: %w", typ, printed, err)
				}
				neCursor = (neCursor + attempt + 1) % len(neTypes)
				pair = &EquivExample{
					SQL1: q.SQL, SQL2: printed,
					Equivalent: false, Type: typ,
				}
				break
			}
		}
		if pair == nil {
			continue
		}
		pair.ID = fmt.Sprintf("%s/eq", q.ID)
		pair.Props = q.Props
		out = append(out, *pair)
	}
	var ops int64
	if checker != nil {
		ops = checker.Ops()
	}
	return out, ops, nil
}

// buildPerf labels SDSS queries by the 200 ms threshold from Figure 5.
func buildPerf(w *workload.Workload) []PerfExample {
	var out []PerfExample
	for _, q := range w.Queries {
		out = append(out, PerfExample{
			ID:        fmt.Sprintf("%s/perf", q.ID),
			SQL:       q.SQL,
			Costly:    q.ElapsedMS > 200,
			ElapsedMS: q.ElapsedMS,
			Props:     q.Props,
		})
	}
	return out
}

// buildExplain pairs Spider queries with reference descriptions and facts.
func buildExplain(w *workload.Workload) []ExplainExample {
	var out []ExplainExample
	for _, q := range w.Queries {
		sel, err := sqlparse.ParseSelect(q.SQL)
		if err != nil {
			continue
		}
		out = append(out, ExplainExample{
			ID:          fmt.Sprintf("%s/exp", q.ID),
			SQL:         q.SQL,
			Description: q.Description,
			Facts:       nlgen.Extract(sel),
			Props:       q.Props,
		})
	}
	return out
}

// SchemasByDataset returns the oracle schema per dataset (the knowledge the
// simulated models are constructed with).
func (b *Benchmark) SchemasByDataset() map[string]*catalog.Schema {
	out := map[string]*catalog.Schema{}
	for name, w := range b.Workloads {
		out[name] = w.Schema
	}
	return out
}
