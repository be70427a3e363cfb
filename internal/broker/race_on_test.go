//go:build race

package broker

// raceEnabled: the race detector's shadow memory and dropped sync.Pool
// items make heap-size bounds meaningless.
const raceEnabled = true
