//go:build race

package main

// raceEnabled: the race detector's instrumentation makes wall-clock
// bounds meaningless.
const raceEnabled = true
