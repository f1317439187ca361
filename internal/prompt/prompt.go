// Package prompt defines the task prompts from the paper's Section 3.4,
// including the variant sets used by the prompt-tuning mock experiments.
// Queries are embedded after "SQL:" markers (or "SQL 1:"/"SQL 2:" for
// pairs), which is the contract the response side relies on.
package prompt

import (
	"fmt"
	"strings"
)

// Task identifies a prompted SQL task. Multi-part tasks (binary + type +
// location) share a single prompt, as in the paper.
type Task string

// Tasks.
const (
	SyntaxError Task = "syntax_error" // also syntax_error_type
	MissToken   Task = "miss_token"   // also miss_token_type, miss_token_loc
	QueryEquiv  Task = "query_equiv"  // also query_equiv_type
	PerfPred    Task = "performance_pred"
	QueryExp    Task = "query_exp"
	FillToken   Task = "fill_token"  // missing-token recovery (fill-in) variant
	TableState  Task = "table_state" // final table contents after a DML/transaction script
)

// Tasks lists all prompted tasks.
var Tasks = []Task{SyntaxError, MissToken, QueryEquiv, PerfPred, QueryExp, FillToken, TableState}

// Markers for query embedding.
const (
	MarkerQuery  = "SQL:"
	MarkerQuery1 = "SQL 1:"
	MarkerQuery2 = "SQL 2:"
)

// Template is one prompt formulation for a task.
type Template struct {
	Task Task
	ID   string // e.g. "syntax_error/v1"
	Text string // instruction text; the query is appended after the marker
	// Shots makes a few-shot prompt: Render writes these worked examples
	// between the instruction and the query. The paper's prompts have none.
	Shots []Shot
}

// Shot is one worked example for few-shot prompting.
type Shot struct {
	SQL    string
	Answer string
}

// Render produces the full prompt for a single-query task: the instruction,
// any worked examples, then the query.
func (t Template) Render(sql string) string {
	if len(t.Shots) == 0 {
		return t.Text + "\n\n" + MarkerQuery + " " + sql
	}
	var b strings.Builder
	b.WriteString(t.Text)
	b.WriteString("\n")
	for i, s := range t.Shots {
		fmt.Fprintf(&b, "\nExample %d:\n%s %s\nAnswer: %s\n", i+1, MarkerQuery, s.SQL, s.Answer)
	}
	b.WriteString("\nNow the real query.\n\n")
	b.WriteString(MarkerQuery)
	b.WriteString(" ")
	b.WriteString(sql)
	return b.String()
}

// RenderPair produces the full prompt for a query-pair task.
func (t Template) RenderPair(sql1, sql2 string) string {
	return t.Text + "\n\n" + MarkerQuery1 + " " + sql1 + "\n" + MarkerQuery2 + " " + sql2
}

// variants lists the instruction texts of the candidate formulations per
// task; the i-th is template "<task>/v<i+1>". The first entry is the paper's
// published prompt; the tuner (core.TunePrompt) selects among them.
var variants = map[Task][]string{
	SyntaxError: {
		"Does the following query contain any syntax errors? If so, explain the error and state the error type.",
		"You are a SQL reviewer. Check this query for syntax or semantic errors. Answer yes or no, then name the error type if any.",
		"Is this SQL query valid? Reply yes/no and identify any error.",
	},
	MissToken: {
		"Does the following query have any syntax errors? (yes/no) If yes, is there a missing word? (yes/no) If yes, what is the type of the missing word? If yes, what is the missing word? If yes, what is the position of the missing word? (Provide the word count position where the word is missing.)",
		"Check whether a token is missing from this SQL query. If one is missing, report its type (keyword, table, column, value, alias, comparison), the token, and its word position.",
		"Something may have been deleted from this query. Say yes or no, and if yes identify what and where.",
	},
	QueryEquiv: {
		"Are the following two queries equivalent (do they produce the same results on the same database schema)? If yes, why are they equivalent? Also name the transformation type relating them.",
		"Decide whether these two SQL queries always return identical results. Answer equivalent or not equivalent, and classify the rewrite.",
		"Same results or not? Compare the two queries and explain.",
	},
	PerfPred: {
		"Does the following query take longer than usual to run?",
		"Classify this query's runtime cost as high or low, considering its joins, predicates, and the tables it scans.",
		"Will this query be slow? Answer yes or no.",
	},
	QueryExp: {
		"Provide a single statement describing this query:",
		"Explain in one sentence what this SQL query returns.",
		"Summarize the purpose of this query.",
	},
	FillToken: {
		"One token may be absent from the following SQL query. If so, reply with the exact missing token in double quotes; otherwise reply that the query is complete.",
		"Repair this SQL query if a token was dropped: give the exact missing token in double quotes, or state that the query is complete.",
		"Fill in the gap. Reply with the exact missing token, or 'complete'.",
	},
	TableState: {
		"The following SQL script creates a table and modifies it. What are the final contents of the table after running the script? List every row in parentheses, separated by commas, with text values in single quotes — for example ( 1 , 'alpha' ). If no rows remain, reply that the table is empty. A BEGIN..ROLLBACK block leaves the table unchanged.",
		"Execute this DML script mentally. What rows does the table contain after running it? Give each row as a parenthesized tuple, text in single quotes, or say the table is empty. Remember that a ROLLBACK undoes everything since its BEGIN.",
		"Trace the script. Final table contents? Rows in parentheses, or 'empty'.",
	},
}

// Variants returns the candidate templates for a task.
func Variants(task Task) []Template {
	texts := variants[task]
	out := make([]Template, len(texts))
	for i, text := range texts {
		out[i] = Template{Task: task, ID: fmt.Sprintf("%s/v%d", task, i+1), Text: text}
	}
	return out
}

// Default returns the paper's published prompt for a task.
func Default(task Task) Template {
	texts := variants[task]
	if len(texts) == 0 {
		panic(fmt.Sprintf("prompt: unknown task %q", task))
	}
	return Template{Task: task, ID: string(task) + "/v1", Text: texts[0]}
}

// DetectTaskLower identifies which task a rendered prompt belongs to from
// its instruction (see Instruction), lowercased with strings.ToLower, so
// wording inside the embedded query never changes the answer. Simulated
// models use this the way a real model infers intent from instructions.
func DetectTaskLower(lower string) (Task, bool) {
	switch {
	// Fill-in is checked before miss_token: both talk about missing tokens,
	// but only the fill prompts ask for the exact token back.
	case strings.Contains(lower, "exact missing token"):
		return FillToken, true
	case strings.Contains(lower, "missing word") || strings.Contains(lower, "token is missing") || strings.Contains(lower, "been deleted"):
		return MissToken, true
	case strings.Contains(lower, "equivalent") || strings.Contains(lower, "identical results") || strings.Contains(lower, "same results"):
		return QueryEquiv, true
	case strings.Contains(lower, "longer than usual") || strings.Contains(lower, "runtime cost") || strings.Contains(lower, "be slow"):
		return PerfPred, true
	case strings.Contains(lower, "describing this query") || strings.Contains(lower, "what this sql query returns") || strings.Contains(lower, "purpose of this query"):
		return QueryExp, true
	case strings.Contains(lower, "final contents") || strings.Contains(lower, "contain after running") || strings.Contains(lower, "final table contents"):
		return TableState, true
	case strings.Contains(lower, "syntax") || strings.Contains(lower, "query valid") || strings.Contains(lower, "semantic errors"):
		return SyntaxError, true
	default:
		return "", false
	}
}

// The target markers as the renderers write them. A blank line separates
// the instruction (and any worked examples, whose queries follow a single
// newline) from the target query or pair; the second query of a pair
// starts its own line.
const (
	targetMarker = "\n\n" + MarkerQuery + " "
	pairMarker1  = "\n\n" + MarkerQuery1 + " "
	pairMarker2  = "\n" + MarkerQuery2 + " "
)

// target locates the first target marker of a rendered prompt: its index
// and whether it opens a pair, or -1 when the text has none. The
// instruction comes first, so the first marker is the renderer's and any
// marker-like text inside the queries lies after it.
func target(promptText string) (idx int, pair bool) {
	i := strings.Index(promptText, targetMarker)
	j := strings.Index(promptText, pairMarker1)
	if j >= 0 && (i < 0 || j < i) {
		return j, true
	}
	return i, false
}

// Instruction returns the part of a rendered prompt before its target
// query: the template text, plus the worked examples of a few-shot prompt.
// Task and prompt wording are read from it alone. Text with no target
// marker is returned whole.
func Instruction(promptText string) string {
	if i, _ := target(promptText); i >= 0 {
		return promptText[:i]
	}
	return promptText
}

// ExtractQuery pulls the target query out of a single-query prompt: the
// trimmed text after the first target marker ("\n\nSQL: "), so a query that
// itself contains "SQL:" comes back verbatim.
func ExtractQuery(promptText string) (string, bool) {
	i, pair := target(promptText)
	if i < 0 || pair {
		return "", false
	}
	return strings.TrimSpace(promptText[i+len(targetMarker):]), true
}

// ExtractQueryPair pulls both queries out of a pair prompt: the first query
// follows the first "\n\nSQL 1: " marker and ends at the first "\nSQL 2: "
// after it. The one ambiguous input is a first query containing a line that
// starts with "SQL 2: ", which is read as the start of the second query.
func ExtractQueryPair(promptText string) (string, string, bool) {
	i, pair := target(promptText)
	if i < 0 || !pair {
		return "", "", false
	}
	rest := promptText[i+len(pairMarker1):]
	j := strings.Index(rest, pairMarker2)
	if j < 0 {
		return "", "", false
	}
	return strings.TrimSpace(rest[:j]), strings.TrimSpace(rest[j+len(pairMarker2):]), true
}
