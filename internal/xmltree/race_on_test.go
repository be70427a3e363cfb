//go:build race

package xmltree

// raceEnabled: under -race sync.Pool drops a quarter of what is put
// back, so the allocation-bound tests do not hold.
const raceEnabled = true
