//go:build race

package engine_test

// The race detector slows the engine several-fold, too much for the
// metamorphic corpus.
func init() { raceEnabled = true }
