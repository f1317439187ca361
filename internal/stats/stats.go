// Package stats provides the descriptive statistics used in the paper's
// Section 2: bucketed histograms matching the figures' axes, and Pearson
// correlation matrices over query properties (Figure 4).
package stats

import "math"

// Histogram counts integer values into labeled buckets defined by ascending
// lower bounds: bounds [0,1,2] yields buckets [0,1), [1,2), [2,inf).
type Histogram struct {
	Bounds []int
	Labels []string
	Counts []int
}

// NewHistogram builds a histogram; labels and bounds must align.
func NewHistogram(bounds []int, labels []string) *Histogram {
	if len(bounds) != len(labels) {
		panic("stats: bounds and labels must have equal length")
	}
	return &Histogram{
		Bounds: append([]int{}, bounds...),
		Labels: append([]string{}, labels...),
		Counts: make([]int, len(bounds)),
	}
}

// Add counts one value.
func (h *Histogram) Add(v int) {
	idx := 0
	for i, b := range h.Bounds {
		if v >= b {
			idx = i
		}
	}
	h.Counts[idx]++
}

// Total returns the number of counted values.
func (h *Histogram) Total() int {
	n := 0
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// Pearson computes the Pearson correlation coefficient of two equal-length
// samples; 0 when undefined (zero variance or empty).
func Pearson(x, y []float64) float64 {
	n := len(x)
	if n == 0 || n != len(y) {
		return 0
	}
	var sx, sy float64
	for i := 0; i < n; i++ {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/float64(n), sy/float64(n)
	var cov, vx, vy float64
	for i := 0; i < n; i++ {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// CorrMatrix computes the pairwise Pearson matrix of column vectors.
func CorrMatrix(cols [][]float64) [][]float64 {
	n := len(cols)
	out := make([][]float64, n)
	for i := range out {
		out[i] = make([]float64, n)
		for j := range out[i] {
			if i == j {
				out[i][j] = 1
				continue
			}
			out[i][j] = Pearson(cols[i], cols[j])
		}
	}
	return out
}
