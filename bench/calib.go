package main

import (
	"crypto/sha256"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The benchmark's machine shares its cores with other tenants, and its
// speed drifts by up to a factor of two over tens of seconds. Raw wall
// times would then compare machine states, not commits. So the benchmark
// interleaves short bursts of a fixed reference workload with the measured
// work and scales each measured slice by the machine's speed around it:
// a time t measured while the reference ran at rate r is reported as
// t × r / nominalRate, the time the work would have taken on the machine
// at its nominal speed. The reference uses only the standard library, so
// no change to the program can move it.

// nominalRate is the reference rate, in units per second, that reported
// times are scaled to: the median rate on the two-CPU machine the bounds
// were set on.
const nominalRate = 150_000

// burst is how long one speed reading runs the reference. Readings
// scatter by about 10% around the machine's speed; averaged over the
// twenty-odd readings of a run, that noise stays near 2%.
const burst = 100 * time.Millisecond

// refUnit is one unit of reference work: string formatting, map inserts
// and lookups, a sort and a hash, allocating as the program does.
func refUnit(seed int) byte {
	m := make(map[string]int, 64)
	keys := make([]string, 0, 64)
	for i := 0; i < 64; i++ {
		k := "k" + strconv.Itoa(seed*64+i)
		m[k] = i
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf []byte
	for _, k := range keys {
		buf = strconv.AppendInt(append(buf, k...), int64(m[k]), 10)
	}
	sum := sha256.Sum256(buf)
	return sum[0]
}

// sink keeps the reference work observable to the compiler.
var sink byte

// speed runs the reference on workers goroutines for burst and returns
// the machine's speed relative to nominalRate.
func speed() float64 {
	var wg sync.WaitGroup
	counts := make([]int, workers)
	outs := make([]byte, workers)
	start := time.Now()
	for w := range counts {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Since(start) < burst {
				outs[w] ^= refUnit(counts[w])
				counts[w]++
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	n := 0
	for w, c := range counts {
		n += c
		sink ^= outs[w]
	}
	return float64(n) / elapsed / nominalRate
}
