package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		truth, pred bool
		want        Outcome
	}{
		{true, true, TP}, {false, false, TN}, {false, true, FP}, {true, false, FN},
	}
	for _, c := range cases {
		if got := Classify(c.truth, c.pred); got != c.want {
			t.Errorf("Classify(%v,%v) = %v, want %v", c.truth, c.pred, got, c.want)
		}
	}
}

func TestBinaryMetrics(t *testing.T) {
	var b Binary
	// 8 TP, 2 FN, 1 FP, 9 TN.
	for i := 0; i < 8; i++ {
		b.Add(true, true)
	}
	for i := 0; i < 2; i++ {
		b.Add(true, false)
	}
	b.Add(false, true)
	for i := 0; i < 9; i++ {
		b.Add(false, false)
	}
	if got := b.Precision(); got < 0.888 || got > 0.889 {
		t.Errorf("precision = %v", got)
	}
	if got := b.Recall(); got != 0.8 {
		t.Errorf("recall = %v", got)
	}
	if got := b.Accuracy(); got != 0.85 {
		t.Errorf("accuracy = %v", got)
	}
	if b.Total() != 20 {
		t.Errorf("total = %d", b.Total())
	}
	if b.Count(TP) != 8 || b.Count(FN) != 2 || b.Count(FP) != 1 || b.Count(TN) != 9 {
		t.Error("counts wrong")
	}
}

func TestBinaryZeroSafe(t *testing.T) {
	var b Binary
	if b.Precision() != 0 || b.Recall() != 0 || b.F1() != 0 || b.Accuracy() != 0 {
		t.Error("empty matrix should yield zeros, not NaN")
	}
}

// Property (testing/quick): F1 is always within [0,1] and never exceeds
// max(precision, recall); precision/recall/accuracy stay within [0,1].
func TestBinaryInvariantsQuick(t *testing.T) {
	f := func(tp, tn, fp, fn uint8) bool {
		b := Binary{TPs: int(tp), TNs: int(tn), FPs: int(fp), FNs: int(fn)}
		p, r, f1, acc := b.Precision(), b.Recall(), b.F1(), b.Accuracy()
		for _, v := range []float64{p, r, f1, acc} {
			if v < 0 || v > 1 {
				return false
			}
		}
		hi := p
		if r > hi {
			hi = r
		}
		return f1 <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property (testing/quick): F1 equals the harmonic mean identity whenever
// p+r > 0.
func TestF1HarmonicQuick(t *testing.T) {
	f := func(tp, fp, fn uint8) bool {
		b := Binary{TPs: int(tp), FPs: int(fp), FNs: int(fn)}
		p, r := b.Precision(), b.Recall()
		if p+r == 0 {
			return b.F1() == 0
		}
		want := 2 * p * r / (p + r)
		diff := b.F1() - want
		return diff < 1e-12 && diff > -1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMultiClassWeighted(t *testing.T) {
	mc := NewMultiClass()
	// Class a: 3 right of 4; class b: 1 right of 2.
	mc.Add("a", "a")
	mc.Add("a", "a")
	mc.Add("a", "a")
	mc.Add("a", "b")
	mc.Add("b", "b")
	mc.Add("b", "a")
	if got := mc.Accuracy(); got < 0.66 || got > 0.67 {
		t.Errorf("accuracy = %v", got)
	}
	// Weighted recall = (0.75*4 + 0.5*2)/6 = 4/6.
	if got := mc.WeightedRecall(); got < 0.66 || got > 0.67 {
		t.Errorf("weighted recall = %v", got)
	}
	if got := mc.WeightedF1(); got <= 0 || got > 1 {
		t.Errorf("weighted f1 = %v", got)
	}
	classes := mc.Classes()
	if len(classes) != 2 || classes[0] != "a" {
		t.Errorf("classes = %v", classes)
	}

	// Six classes, c/d/e first seen mid-stream and f first seen only as a
	// prediction. Per class (support; TP FP FN):
	//   a (3; 2 1 1)  P 2/3  R 2/3  F1 2/3
	//   b (2; 1 1 1)  P 1/2  R 1/2  F1 1/2
	//   c (2; 1 1 1)  P 1/2  R 1/2  F1 1/2
	//   d (2; 1 1 1)  P 1/2  R 1/2  F1 1/2
	//   e (2; 1 0 1)  P 1    R 1/2  F1 2/3
	//   f (1; 1 1 0)  P 1/2  R 1    F1 2/3
	stream := [][2]string{
		{"a", "a"}, {"a", "a"}, {"b", "b"}, {"a", "b"}, {"c", "c"}, {"b", "c"},
		{"d", "d"}, {"d", "a"}, {"e", "e"}, {"c", "f"}, {"f", "f"}, {"e", "d"},
	}
	fwd, rev := NewMultiClass(), NewMultiClass()
	for i := range stream {
		fwd.Add(stream[i][0], stream[i][1])
		rev.Add(stream[len(stream)-1-i][0], stream[len(stream)-1-i][1])
	}
	for _, c := range []struct {
		name string
		got  func(*MultiClass) float64
		want float64
	}{
		// (3·2/3 + 2·1/2 + 2·1/2 + 2·1/2 + 2·1 + 1·1/2) / 12
		{"precision", (*MultiClass).WeightedPrecision, 7.5 / 12},
		// (3·2/3 + 2·1/2 + 2·1/2 + 2·1/2 + 2·1/2 + 1·1) / 12
		{"recall", (*MultiClass).WeightedRecall, 7.0 / 12},
		// (3·2/3 + 2·1/2 + 2·1/2 + 2·1/2 + 2·2/3 + 1·2/3) / 12
		{"f1", (*MultiClass).WeightedF1, 7.0 / 12},
		{"accuracy", (*MultiClass).Accuracy, 7.0 / 12},
	} {
		got := c.got(fwd)
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("six-class weighted %s = %v, want %v", c.name, got, c.want)
		}
		// Same counts, any insertion order, any number of calls: the same
		// bits, never a map-order-dependent low bit.
		for i := 0; i < 20; i++ {
			if a, b := math.Float64bits(c.got(fwd)), math.Float64bits(c.got(rev)); a != math.Float64bits(got) || b != a {
				t.Fatalf("six-class weighted %s not bit-identical across calls: %v, %v, %v",
					c.name, got, math.Float64frombits(a), math.Float64frombits(b))
			}
		}
	}
	// One-vs-rest negatives are exact, including for classes first seen
	// mid-stream: every other example is a TN.
	if a := fwd.oneVsRest("a"); a != (Binary{TPs: 2, FPs: 1, FNs: 1, TNs: 8}) {
		t.Errorf("class a = %+v", a)
	}
	if f := fwd.oneVsRest("f"); f != (Binary{TPs: 1, FPs: 1, TNs: 10}) {
		t.Errorf("class f = %+v, want TN 10 (all other examples)", f)
	}
	if got := fwd.Classes(); len(got) != 6 || got[0] != "a" || got[5] != "f" {
		t.Errorf("classes = %v", got)
	}
}

func TestMultiClassEmpty(t *testing.T) {
	mc := NewMultiClass()
	if mc.WeightedF1() != 0 || mc.Accuracy() != 0 {
		t.Error("empty multiclass should yield zeros")
	}
}

// Property (testing/quick): perfect predictions give accuracy and weighted
// scores of exactly 1.
func TestMultiClassPerfectQuick(t *testing.T) {
	f := func(labels []uint8) bool {
		if len(labels) == 0 {
			return true
		}
		mc := NewMultiClass()
		names := []string{"x", "y", "z"}
		for _, l := range labels {
			c := names[int(l)%len(names)]
			mc.Add(c, c)
		}
		return mc.Accuracy() == 1 && mc.WeightedF1() > 0.999
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestLocation(t *testing.T) {
	var l Location
	l.Add(5, 5)
	l.Add(5, 8)
	l.Add(5, 1)
	if got := l.MAE(); got < 2.33 || got > 2.34 {
		t.Errorf("MAE = %v", got)
	}
	if got := l.HitRate(); got < 0.33 || got > 0.34 {
		t.Errorf("HR = %v", got)
	}
	if l.N() != 3 {
		t.Errorf("N = %d", l.N())
	}
	var empty Location
	if empty.MAE() != 0 || empty.HitRate() != 0 {
		t.Error("empty location metrics should be zero")
	}
}

// Property (testing/quick): MAE is symmetric in prediction error sign, and
// HitRate is 1 exactly when all predictions match.
func TestLocationQuick(t *testing.T) {
	f := func(errs []int8) bool {
		var l Location
		allZero := true
		for i, e := range errs {
			l.Add(i, i+int(e))
			if e != 0 {
				allZero = false
			}
		}
		if len(errs) == 0 {
			return true
		}
		if allZero {
			return l.HitRate() == 1 && l.MAE() == 0
		}
		return l.HitRate() < 1 && l.MAE() > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBreakdown(t *testing.T) {
	bd := NewBreakdown()
	bd.Add(true, true, 10)  // TP
	bd.Add(true, true, 20)  // TP
	bd.Add(true, false, 50) // FN
	bd.Add(false, true, 40) // FP
	bd.Add(false, false, 5) // TN
	if bd.Avg(TP) != 15 {
		t.Errorf("avg TP = %v", bd.Avg(TP))
	}
	if bd.Median(TP) != 15 {
		t.Errorf("median TP = %v", bd.Median(TP))
	}
	if bd.Avg(FN) != 50 || bd.Count(FN) != 1 {
		t.Error("FN stats wrong")
	}
	if bd.Avg(FP) != 40 || bd.Avg(TN) != 5 {
		t.Error("FP/TN stats wrong")
	}
	if bd.Avg(Outcome(99)) != 0 {
		t.Error("unknown outcome should be zero")
	}
}

func TestBreakdownMedianOdd(t *testing.T) {
	bd := NewBreakdown()
	for _, v := range []float64{3, 1, 2} {
		bd.Add(true, true, v)
	}
	if bd.Median(TP) != 2 {
		t.Errorf("median = %v", bd.Median(TP))
	}
}

func TestOutcomeString(t *testing.T) {
	if TP.String() != "TP" || FN.String() != "FN" {
		t.Error("outcome names wrong")
	}
}

func BenchmarkBinaryAdd(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	var bin Binary
	for i := 0; i < b.N; i++ {
		bin.Add(r.Intn(2) == 0, r.Intn(2) == 0)
	}
}
