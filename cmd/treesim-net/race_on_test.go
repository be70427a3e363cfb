//go:build race

package main

// raceEnabled: under the race detector a full fault schedule runs ten
// times slower; the pinned runs keep only the faults seed there.
const raceEnabled = true
