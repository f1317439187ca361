package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int{1, 30, 60}, []string{"1-30", "30-60", "60+"})
	for _, v := range []int{1, 29, 30, 59, 60, 1000, 0} {
		h.Add(v)
	}
	// 0 falls in the first bucket (lowest bound is the floor).
	if h.Counts[0] != 3 || h.Counts[1] != 2 || h.Counts[2] != 2 {
		t.Errorf("counts = %v", h.Counts)
	}
	if h.Total() != 7 {
		t.Errorf("total = %d", h.Total())
	}
}

func TestHistogramPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bounds/labels mismatch")
		}
	}()
	NewHistogram([]int{1}, []string{"a", "b"})
}

func TestPearsonKnownValues(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	y := []float64{2, 4, 6, 8, 10}
	if got := Pearson(x, y); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect positive = %v", got)
	}
	yNeg := []float64{10, 8, 6, 4, 2}
	if got := Pearson(x, yNeg); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect negative = %v", got)
	}
	flat := []float64{3, 3, 3, 3, 3}
	if got := Pearson(x, flat); got != 0 {
		t.Errorf("zero variance = %v", got)
	}
	if Pearson(nil, nil) != 0 || Pearson(x, x[:2]) != 0 {
		t.Error("degenerate inputs should be 0")
	}
}

// Property (testing/quick): Pearson stays within [-1, 1], is symmetric, and
// self-correlation of a non-constant vector is 1.
func TestPearsonQuick(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 3 {
			return true
		}
		x := make([]float64, len(raw))
		y := make([]float64, len(raw))
		varied := false
		for i, v := range raw {
			x[i] = float64(v)
			y[i] = float64(int(v)*3%17) - 4
			if i > 0 && raw[i] != raw[0] {
				varied = true
			}
		}
		r1, r2 := Pearson(x, y), Pearson(y, x)
		if r1 < -1-1e-9 || r1 > 1+1e-9 {
			return false
		}
		if math.Abs(r1-r2) > 1e-9 {
			return false
		}
		if varied && math.Abs(Pearson(x, x)-1) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCorrMatrix(t *testing.T) {
	cols := [][]float64{
		{1, 2, 3, 4},
		{2, 4, 6, 8},
		{4, 3, 2, 1},
	}
	m := CorrMatrix(cols)
	if m[0][0] != 1 || m[1][1] != 1 || m[2][2] != 1 {
		t.Error("diagonal must be 1")
	}
	if math.Abs(m[0][1]-1) > 1e-12 {
		t.Errorf("m[0][1] = %v", m[0][1])
	}
	if math.Abs(m[0][2]+1) > 1e-12 {
		t.Errorf("m[0][2] = %v", m[0][2])
	}
	if m[0][1] != m[1][0] {
		t.Error("matrix must be symmetric")
	}
}
