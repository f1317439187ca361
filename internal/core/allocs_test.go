package core

import "testing"

// raceEnabled is set by race_test.go in race-detector builds.
var raceEnabled bool

// TestBuildAllocs bounds the allocations of the build sqlbench runs (seed 1,
// pairs verified, one worker): about 310k. The build works from the trees
// the workload generators keep: re-parsing each query in Workload.Finalize
// (342k), parsing each printed transform into a tree (340k), or recounting
// the whole statement after every PadProjection item (331k) would each push
// it over the bound.
func TestBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	const bound = 320_000
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := Build(BuildConfig{Seed: 1, VerifyEquivalences: true, Parallel: 1}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f allocs per verified build", allocs)
	if allocs > bound {
		t.Errorf("verified seed-1 build made %.0f allocations, want <= %d", allocs, bound)
	}
}
