package core

import (
	"context"
	"fmt"

	"repro/internal/llm"
	"repro/internal/prompt"
)

// Skill names the four understanding skills from the paper's Section 1.
type Skill string

// Skills.
const (
	Recognition Skill = "Recognition"
	Semantics   Skill = "Semantics"
	Context     Skill = "Context"
	Coherence   Skill = "Coherence"
)

// Skills lists the four in the paper's Table 1 row order.
var Skills = []Skill{Recognition, Semantics, Context, Coherence}

// Per-task skill emphasis from Table 1 (0 = not probed, 1 = probed,
// 2 = strongly probed). The registry entries and the rendered Table 1 share
// these maps.
var (
	syntaxSkills  = map[Skill]int{Recognition: 2, Semantics: 0, Context: 0, Coherence: 1}
	tokenSkills   = map[Skill]int{Recognition: 1, Semantics: 1, Context: 2, Coherence: 0}
	perfSkills    = map[Skill]int{Recognition: 0, Semantics: 0, Context: 1, Coherence: 2}
	equivSkills   = map[Skill]int{Recognition: 0, Semantics: 2, Context: 0, Coherence: 2}
	explainSkills = map[Skill]int{Recognition: 1, Semantics: 2, Context: 2, Coherence: 0}
	// fill_token probes the same skills as miss_token: recovering the exact
	// token leans even harder on contextual completion, but the Table 1
	// emphasis grid tops out at 2.
	fillSkills = map[Skill]int{Recognition: 1, Semantics: 1, Context: 2, Coherence: 0}
	// table_state asks for the final table contents after a DML/transaction
	// script: it probes statement semantics directly and coherence across
	// statements (each answer depends on every prior statement and on
	// transaction visibility).
	stateSkills = map[Skill]int{Recognition: 0, Semantics: 2, Context: 1, Coherence: 2}
)

// TaskInfo describes one SQL task and the skills it probes, with emphasis
// levels matching Table 1.
type TaskInfo struct {
	Name   string
	Skills map[Skill]int
}

// TaskCatalog reproduces Table 1's skill-to-task mapping: the paper's five
// tasks under their published display names, in column order. Registered
// extensions (like fill_token) are discoverable via Tasks() but do not
// appear here, so the rendered Table 1 stays faithful to the paper.
var TaskCatalog = []TaskInfo{
	{Name: "syntax error", Skills: syntaxSkills},
	{Name: "missing token", Skills: tokenSkills},
	{Name: "Q. perf. estimate", Skills: perfSkills},
	{Name: "Q. equiv.", Skills: equivSkills},
	{Name: "Q. explain.", Skills: explainSkills},
}

// TuneResult records the accuracy of one prompt variant during tuning.
type TuneResult struct {
	Template prompt.Template
	Accuracy float64
}

// TunePrompt reproduces the paper's prompt-tuning mock experiments: each
// variant runs on a small trial subset and the most accurate one wins.
// Currently implemented for the syntax_error task, whose binary accuracy is
// the tuning criterion the paper describes.
func TunePrompt(ctx context.Context, client llm.Client, trial []SyntaxExample) ([]TuneResult, prompt.Template, error) {
	var results []TuneResult
	best := prompt.Default(prompt.SyntaxError)
	bestAcc := -1.0
	for _, tpl := range prompt.Variants(prompt.SyntaxError) {
		res, _, err := Run(ctx, client, SyntaxTask, trial, RunOpts{Template: tpl})
		if err != nil {
			return nil, best, fmt.Errorf("tuning with %s: %w", tpl.ID, err)
		}
		acc := Summarize(res, SyntaxTask.Score).Accuracy
		results = append(results, TuneResult{Template: tpl, Accuracy: acc})
		if acc > bestAcc {
			bestAcc = acc
			best = tpl
		}
	}
	return results, best, nil
}
