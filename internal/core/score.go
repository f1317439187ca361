package core

import (
	"repro/internal/analyze"
	"repro/internal/metrics"
)

// Score is how one graded result counts toward its task's measurements.
// Each task fills it from a result with its one TaskDef.Score function, and
// every table, figure and grid cell aggregates these records — the paper
// measures every task the same way, so the task-specific rules live only in
// that function. Score functions return the record as one literal: the
// aggregators call them once per result on every render, and a record
// assembled through a helper is copied once more on the way out.
type Score struct {
	// Credit is the result's headline grade: 1 or 0 for a right or wrong
	// answer, or a continuous grade (query_exp's fact coverage).
	Credit float64
	// Detect marks a result of a task that scores a binary detection; Truth
	// is then the label and Pred the model's verdict.
	Detect      bool
	Truth, Pred bool
	// Class is the true class; on a detection positive it keys the FN rate.
	// Typed marks a result that counts toward the task's type scores, as
	// Class against PredClass ("(none)" for an unstated type).
	Typed            bool
	Class, PredClass string
	// Props points at the example's query properties, read by the failure
	// panels; nil for a task whose examples carry none.
	Props *analyze.Properties
}

// credit is the grade of a right-or-wrong answer.
func credit(ok bool) float64 {
	if ok {
		return 1
	}
	return 0
}

// statedClass is the predicted class a type score counts: "(none)" unless
// the model stated a type.
func statedClass(stated bool, class string) string {
	if !stated || class == "" {
		return "(none)"
	}
	return class
}

// Summarize folds a cell's results into the generic summary: their count,
// their mean credit and, for detection tasks, the detection's P/R/F1.
func Summarize[R any](rs []R, score func(*R) Score) Summary {
	s := Summary{N: len(rs)}
	var b metrics.Binary
	var sum float64
	for i := range rs {
		sc := score(&rs[i])
		sum += sc.Credit
		if sc.Detect {
			s.HasPRF = true
			b.Add(sc.Truth, sc.Pred)
		}
	}
	if s.N > 0 {
		s.Accuracy = sum / float64(s.N)
	}
	if s.HasPRF {
		s.Prec, s.Rec, s.F1 = b.Precision(), b.Recall(), b.F1()
	}
	return s
}

// Confusion is the binary detection confusion of a cell (Tables 3, 4, 6
// and 7, top).
func Confusion[R any](rs []R, score func(*R) Score) metrics.Binary {
	var b metrics.Binary
	for i := range rs {
		if s := score(&rs[i]); s.Detect {
			b.Add(s.Truth, s.Pred)
		}
	}
	return b
}

// TypeScores accumulates the type classification of a cell for its
// support-weighted scores (Tables 3, 4 and 7, bottom).
func TypeScores[R any](rs []R, score func(*R) Score) *metrics.MultiClass {
	mc := metrics.NewMultiClass()
	for i := range rs {
		if s := score(&rs[i]); s.Typed {
			mc.Add(s.Class, s.PredClass)
		}
	}
	return mc
}

// FNRateByClass returns, per true class, the fraction of detection
// positives the model missed (Figures 7 and 9).
func FNRateByClass[R any](rs []R, score func(*R) Score) map[string]float64 {
	pos := map[string]int{}
	fn := map[string]int{}
	for i := range rs {
		s := score(&rs[i])
		if !s.Detect || !s.Truth {
			continue
		}
		pos[s.Class]++
		if !s.Pred {
			fn[s.Class]++
		}
	}
	out := make(map[string]float64, len(pos))
	for c, n := range pos {
		out[c] = float64(fn[c]) / float64(n)
	}
	return out
}

// Breakdown collects a query property per detection outcome (the failure
// panels of Figures 6, 8 and 10-12).
func Breakdown[R any](rs []R, score func(*R) Score, property func(analyze.Properties) float64) *metrics.Breakdown {
	bd := metrics.NewBreakdown()
	for i := range rs {
		if s := score(&rs[i]); s.Detect {
			bd.Add(s.Truth, s.Pred, property(*s.Props))
		}
	}
	return bd
}
