//go:build race

package index

// raceEnabled reports a -race build, whose instrumentation changes what
// the heap and allocation counts measure.
const raceEnabled = true
