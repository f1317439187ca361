// Package metrics implements the evaluation measures used by the paper:
// binary precision/recall/F1, support-weighted multi-class scores, MAE and
// hit rate for positions, and per-outcome (TP/TN/FP/FN) property summaries
// that back the failure-analysis figures.
package metrics

import "sort"

// Outcome classifies one binary prediction against its truth.
type Outcome int

// Outcomes.
const (
	TP Outcome = iota
	TN
	FP
	FN
)

var outcomeNames = [...]string{"TP", "TN", "FP", "FN"}

// String returns "TP", "TN", "FP", or "FN".
func (o Outcome) String() string { return outcomeNames[o] }

// Outcomes lists all four in display order.
var Outcomes = []Outcome{TP, TN, FP, FN}

// Classify maps a (truth, prediction) pair to its outcome.
func Classify(truth, pred bool) Outcome {
	switch {
	case truth && pred:
		return TP
	case !truth && !pred:
		return TN
	case !truth && pred:
		return FP
	default:
		return FN
	}
}

// Binary accumulates a binary confusion matrix.
type Binary struct {
	TPs, TNs, FPs, FNs int
}

// Add records one prediction.
func (b *Binary) Add(truth, pred bool) {
	switch Classify(truth, pred) {
	case TP:
		b.TPs++
	case TN:
		b.TNs++
	case FP:
		b.FPs++
	case FN:
		b.FNs++
	}
}

// Count returns the tally for an outcome.
func (b Binary) Count(o Outcome) int {
	switch o {
	case TP:
		return b.TPs
	case TN:
		return b.TNs
	case FP:
		return b.FPs
	default:
		return b.FNs
	}
}

// Total returns the number of recorded predictions.
func (b Binary) Total() int { return b.TPs + b.TNs + b.FPs + b.FNs }

// Precision returns TP/(TP+FP); 0 when undefined.
func (b Binary) Precision() float64 {
	if b.TPs+b.FPs == 0 {
		return 0
	}
	return float64(b.TPs) / float64(b.TPs+b.FPs)
}

// Recall returns TP/(TP+FN); 0 when undefined.
func (b Binary) Recall() float64 {
	if b.TPs+b.FNs == 0 {
		return 0
	}
	return float64(b.TPs) / float64(b.TPs+b.FNs)
}

// F1 returns the harmonic mean of precision and recall.
func (b Binary) F1() float64 {
	p, r := b.Precision(), b.Recall()
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Accuracy returns (TP+TN)/total.
func (b Binary) Accuracy() float64 {
	if b.Total() == 0 {
		return 0
	}
	return float64(b.TPs+b.TNs) / float64(b.Total())
}

// MultiClass accumulates a multi-class confusion matrix and reports
// support-weighted one-vs-rest precision/recall/F1, matching the paper's
// "weighted accuracy" tables. Add only increments per-class counts; each
// class's one-vs-rest TP/FP/FN/TN are derived exactly when queried, and
// the weighted folds run in sorted class order, so scores never depend on
// map iteration order.
type MultiClass struct {
	support map[string]int // examples per truth class
	tps     map[string]int // correct predictions per class
	fps     map[string]int // wrong predictions per predicted class
	total   int
}

// NewMultiClass returns an empty accumulator.
func NewMultiClass() *MultiClass {
	return &MultiClass{support: map[string]int{}, tps: map[string]int{}, fps: map[string]int{}}
}

// Add records one classification.
func (m *MultiClass) Add(truth, pred string) {
	m.total++
	m.support[truth]++
	if truth == pred {
		m.tps[truth]++
	} else {
		m.fps[pred]++
	}
}

// oneVsRest returns class c's exact one-vs-rest confusion: every example
// that is neither labeled nor predicted c is a true negative.
func (m *MultiClass) oneVsRest(c string) Binary {
	b := Binary{TPs: m.tps[c], FPs: m.fps[c], FNs: m.support[c] - m.tps[c]}
	b.TNs = m.total - b.TPs - b.FPs - b.FNs
	return b
}

// Classes returns the observed truth classes, sorted.
func (m *MultiClass) Classes() []string {
	out := make([]string, 0, len(m.support))
	for c := range m.support {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// weighted folds a per-class measure by class support, in sorted class
// order.
func (m *MultiClass) weighted(f func(Binary) float64) float64 {
	if m.total == 0 {
		return 0
	}
	var sum float64
	for _, c := range m.Classes() {
		sum += f(m.oneVsRest(c)) * float64(m.support[c])
	}
	return sum / float64(m.total)
}

// WeightedPrecision returns support-weighted one-vs-rest precision.
func (m *MultiClass) WeightedPrecision() float64 { return m.weighted(Binary.Precision) }

// WeightedRecall returns support-weighted one-vs-rest recall.
func (m *MultiClass) WeightedRecall() float64 { return m.weighted(Binary.Recall) }

// WeightedF1 returns support-weighted one-vs-rest F1.
func (m *MultiClass) WeightedF1() float64 { return m.weighted(Binary.F1) }

// Accuracy returns exact-match accuracy.
func (m *MultiClass) Accuracy() float64 {
	if m.total == 0 {
		return 0
	}
	correct := 0
	for _, n := range m.tps {
		correct += n
	}
	return float64(correct) / float64(m.total)
}

// Location accumulates position predictions for miss_token_loc.
type Location struct {
	absSum float64
	hits   int
	n      int
}

// Add records one position prediction.
func (l *Location) Add(truth, pred int) {
	l.n++
	d := truth - pred
	if d < 0 {
		d = -d
	}
	l.absSum += float64(d)
	if d == 0 {
		l.hits++
	}
}

// MAE returns the mean absolute error.
func (l Location) MAE() float64 {
	if l.n == 0 {
		return 0
	}
	return l.absSum / float64(l.n)
}

// HitRate returns the fraction of exact hits.
func (l Location) HitRate() float64 {
	if l.n == 0 {
		return 0
	}
	return float64(l.hits) / float64(l.n)
}

// N returns the number of recorded predictions.
func (l Location) N() int { return l.n }

// Breakdown collects a numeric property per outcome, powering the
// word_count/predicate_count failure panels (Figures 6, 8, 10-12).
type Breakdown struct {
	values map[Outcome][]float64
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{values: map[Outcome][]float64{}}
}

// Add records the property value of one prediction.
func (bd *Breakdown) Add(truth, pred bool, value float64) {
	o := Classify(truth, pred)
	bd.values[o] = append(bd.values[o], value)
}

// Count returns the number of observations in an outcome.
func (bd *Breakdown) Count(o Outcome) int { return len(bd.values[o]) }

// Avg returns the mean property value of an outcome (0 when empty).
func (bd *Breakdown) Avg(o Outcome) float64 {
	vs := bd.values[o]
	if len(vs) == 0 {
		return 0
	}
	var sum float64
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}

// Median returns the median property value of an outcome (0 when empty).
func (bd *Breakdown) Median(o Outcome) float64 {
	vs := append([]float64{}, bd.values[o]...)
	if len(vs) == 0 {
		return 0
	}
	sort.Float64s(vs)
	mid := len(vs) / 2
	if len(vs)%2 == 1 {
		return vs[mid]
	}
	return (vs[mid-1] + vs[mid]) / 2
}
