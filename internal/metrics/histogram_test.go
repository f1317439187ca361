package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestLatencyHistogramBasics(t *testing.T) {
	var h LatencyHistogram
	if h.Count() != 0 || h.Mean() != 0 || h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Fatal("zero histogram not empty")
	}
	samples := []time.Duration{
		500 * time.Microsecond,
		3 * time.Millisecond,
		40 * time.Millisecond,
		40 * time.Millisecond,
		900 * time.Millisecond,
	}
	for _, d := range samples {
		h.Observe(d)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d", h.Count())
	}
	var sum time.Duration
	for _, d := range samples {
		sum += d
	}
	if h.Mean() != sum/5 {
		t.Errorf("mean = %v, want %v", h.Mean(), sum/5)
	}
	if h.Max() != 900*time.Millisecond {
		t.Errorf("max = %v", h.Max())
	}
	// The median is the first of the two samples in the (25ms, 50ms] bucket:
	// halfway up it under even spreading.
	if got := h.Quantile(0.5); got != 37500*time.Microsecond {
		t.Errorf("p50 = %v, want 37.5ms", got)
	}
	// The top sample is alone in (500ms, 1s], whose top is capped at Max:
	// p100 is the recorded maximum, not the bucket bound.
	if got := h.Quantile(1); got != 900*time.Millisecond {
		t.Errorf("p100 = %v, want 900ms (the max, inside the 1s bucket)", got)
	}
	bs := h.Cumulative()
	if last := bs[len(bs)-1]; last.UpperBound != 0 || last.Count != 5 {
		t.Errorf("+Inf bucket = %+v, want the 5 samples", last)
	}
}

// Samples spread across one bucket must yield quantiles spread across it
// rather than all collapsing onto its upper bound.
func TestLatencyHistogramInterpolatesWithinBucket(t *testing.T) {
	var h LatencyHistogram
	// Ten samples in (100ms, 250ms], the highest at 200ms.
	for i := 1; i <= 10; i++ {
		h.Observe(100*time.Millisecond + time.Duration(i)*10*time.Millisecond)
	}
	// The bucket's interpolation range is (100ms, min(250ms, 200ms)]: the
	// k-th of its 10 samples sits at 100ms + k*10ms.
	for _, c := range []struct {
		q    float64
		want time.Duration
	}{
		{0.1, 110 * time.Millisecond},
		{0.5, 150 * time.Millisecond},
		{0.95, 200 * time.Millisecond},
		{0.99, 200 * time.Millisecond},
	} {
		if got := h.Quantile(c.q); got != c.want {
			t.Errorf("q%v = %v, want %v", c.q, got, c.want)
		}
	}
	// Below the bucket's upper bound p95 and p50 differ; a bound-valued
	// estimate would report 250ms for both.
	if h.Quantile(0.5) == h.Quantile(0.95) {
		t.Error("p50 == p95: quantiles are not interpolated")
	}
}

func TestLatencyHistogramOverflowBucket(t *testing.T) {
	var h LatencyHistogram
	h.Observe(5 * time.Minute)
	if got := h.Quantile(0.99); got != 5*time.Minute {
		t.Errorf("overflow quantile = %v, want the recorded max", got)
	}
	// Only the unbounded bucket holds it.
	if bs := h.Cumulative(); bs[len(bs)-2].Count != 0 || bs[len(bs)-1].Count != 1 {
		t.Errorf("buckets = %+v, want one sample, in the unbounded bucket", bs)
	}
	// Negative observations clamp instead of corrupting the sum.
	h.Observe(-time.Second)
	if h.Count() != 2 || h.Mean() != 150*time.Second {
		t.Errorf("after negative observe: count=%d mean=%v", h.Count(), h.Mean())
	}
}

func TestLatencyHistogramConcurrent(t *testing.T) {
	var h LatencyHistogram
	var wg sync.WaitGroup
	const goroutines, per = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(time.Duration(g*i) * time.Microsecond)
			}
		}(g)
	}
	wg.Wait()
	if h.Count() != goroutines*per {
		t.Errorf("count = %d, want %d", h.Count(), goroutines*per)
	}
}
