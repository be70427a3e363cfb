//go:build race

package overlay

// raceEnabled: sync.Pool drops items at random under the race detector,
// which makes allocation counts meaningless.
const raceEnabled = true
