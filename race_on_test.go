//go:build race

package logbase_test

// raceEnabled reports a -race build, whose instrumentation makes
// allocations of its own: allocation ceilings hold only without it.
const raceEnabled = true
