// Package engine stands in for a determinism-critical package with map
// iteration in its build paths.
package engine

import (
	"fmt"
	"sort"
)

// Keys leaks randomized map order into its result.
func Keys(m map[string]int) []string {
	var keys []string
	for k := range m { // want `map iteration appends to "keys" without a deterministic sort`
		keys = append(keys, k)
	}
	return keys
}

// SortedKeys is the sanctioned collect-then-sort idiom.
func SortedKeys(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// SelectedKeys sorts through sort.Slice, which also counts.
func SelectedKeys(m map[string]int) []string {
	var keys []string
	for k, v := range m {
		if v > 0 {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Dump emits during iteration: no later sort can fix the output order.
func Dump(m map[string]int) {
	for k, v := range m { // want `map iteration writes to a sink via fmt\.Printf`
		fmt.Printf("%s=%d\n", k, v)
	}
}

// Stream sends entries onward in randomized order.
func Stream(m map[string]int, out chan<- string) {
	for k := range m { // want `map iteration sends on a channel`
		out <- k
	}
}

// Sum is order-insensitive aggregation: fine.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Invert writes into another map, which has no order to corrupt: fine.
func Invert(m map[string]int) map[int]string {
	out := make(map[int]string, len(m))
	for k, v := range m {
		out[v] = k
	}
	return out
}

// PerEntry appends to a slice scoped to one iteration: fine.
func PerEntry(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var local []int
		local = append(local, vs...)
		n += len(local)
	}
	return n
}

// Mean sums floats in map order: float addition is not associative, so
// the low bits of the result vary run to run.
func Mean(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration accumulates float "sum" with \+=`
		sum += v
	}
	return sum / float64(len(m))
}

// weights scales a float field in map order: flagged the same way.
type weights struct{ scale float64 }

func (w *weights) Apply(m map[string]float64) {
	for _, v := range m { // want `map iteration accumulates float "scale" with \*=`
		w.scale *= v
	}
}

// SortedMean folds the same floats in sorted key order: fine.
func SortedMean(m map[string]float64) float64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += m[k]
	}
	return sum / float64(len(m))
}

// PerEntryFloat accumulates into a float scoped to one iteration: fine.
func PerEntryFloat(m map[string][]float64) int {
	n := 0
	for _, vs := range m {
		var local float64
		for _, v := range vs {
			local += v
		}
		if local > 0 {
			n++
		}
	}
	return n
}
