//go:build race

package repair

// The race detector's instrumentation allocates, so allocation bounds do not
// hold under it.
func init() { raceEnabled = true }
