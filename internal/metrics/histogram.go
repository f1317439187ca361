package metrics

import (
	"math"
	"sync/atomic"
	"time"
)

// latencyBounds are the upper bounds of the LatencyHistogram buckets; the
// final bucket is unbounded. Log-scaled to cover both simulated sub-second
// completions and slow real API calls.
var latencyBounds = []time.Duration{
	1 * time.Millisecond,
	2 * time.Millisecond,
	5 * time.Millisecond,
	10 * time.Millisecond,
	25 * time.Millisecond,
	50 * time.Millisecond,
	100 * time.Millisecond,
	250 * time.Millisecond,
	500 * time.Millisecond,
	1 * time.Second,
	2500 * time.Millisecond,
	5 * time.Second,
	10 * time.Second,
	30 * time.Second,
}

// latencyBucketCount is len(latencyBounds)+1 (the final bucket is
// unbounded); a compile-unreachable init check keeps them in sync.
const latencyBucketCount = 15

func init() {
	if len(latencyBounds)+1 != latencyBucketCount {
		panic("metrics: latencyBucketCount out of sync with latencyBounds")
	}
}

// LatencyHistogram is a fixed-bucket concurrency-safe latency accumulator:
// all fields are atomics, so Observe can run from any number of request
// goroutines while snapshots read without locks. The zero value is ready to
// use.
type LatencyHistogram struct {
	counts [latencyBucketCount]atomic.Int64
	sumNS  atomic.Int64
	count  atomic.Int64
	maxNS  atomic.Int64
}

// Observe records one latency sample.
func (h *LatencyHistogram) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	i := 0
	for i < len(latencyBounds) && d > latencyBounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumNS.Add(int64(d))
	h.count.Add(1)
	for {
		cur := h.maxNS.Load()
		if int64(d) <= cur || h.maxNS.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *LatencyHistogram) Count() int64 { return h.count.Load() }

// Mean returns the average latency (0 when empty).
func (h *LatencyHistogram) Mean() time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNS.Load() / n)
}

// Max returns the largest recorded latency.
func (h *LatencyHistogram) Max() time.Duration { return time.Duration(h.maxNS.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) from the bucket counts:
// it finds the bucket holding the q-ranked sample and interpolates linearly
// inside it, from the previous bound to min(bound, Max), as if the bucket's
// samples were spread evenly with the last one at the top. 0 when empty.
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if seen+c < rank {
			seen += c
			continue
		}
		var lo time.Duration
		if i > 0 {
			lo = latencyBounds[i-1]
		}
		hi := h.Max()
		if i < len(latencyBounds) && latencyBounds[i] < hi {
			hi = latencyBounds[i]
		}
		if hi < lo {
			// A concurrent Observe has counted its sample but not yet
			// raised Max.
			hi = lo
		}
		return lo + time.Duration(float64(hi-lo)*float64(rank-seen)/float64(c))
	}
	return h.Max()
}

// HistogramBucket is one bucket of a latency snapshot.
type HistogramBucket struct {
	// UpperBound is the bucket's inclusive upper bound; 0 marks the final
	// unbounded bucket.
	UpperBound time.Duration
	Count      int64
}

// Sum returns the total of all recorded samples — with Count, the _sum and
// _count of a Prometheus histogram exposition.
func (h *LatencyHistogram) Sum() time.Duration { return time.Duration(h.sumNS.Load()) }

// Cumulative returns every bucket (empty ones included) with cumulative
// counts, the Prometheus histogram form: each bucket counts all samples at
// or below its upper bound, and the final bucket (UpperBound 0, i.e. +Inf)
// equals Count.
func (h *LatencyHistogram) Cumulative() []HistogramBucket {
	out := make([]HistogramBucket, latencyBucketCount)
	var running int64
	for i := range h.counts {
		running += h.counts[i].Load()
		out[i] = HistogramBucket{Count: running}
		if i < len(latencyBounds) {
			out[i].UpperBound = latencyBounds[i]
		}
	}
	return out
}
