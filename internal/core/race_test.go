//go:build race

package core

// The race detector's instrumentation allocates, so allocation bounds do not
// hold under it.
func init() { raceEnabled = true }
