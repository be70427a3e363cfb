package broker

// RebuildPolicy decides when accumulated subscription churn warrants a
// full greedy re-clustering. It is consulted after every registry
// mutation with the number of mutations since the last rebuild (stale)
// and the current number of live subscriptions (live).
type RebuildPolicy interface {
	ShouldRebuild(stale, live int) bool
}

// Staleness rebuilds after a fixed number of registry mutations,
// regardless of registry size.
type Staleness struct {
	// MaxStale is the mutation budget between rebuilds (≤ 0 never
	// rebuilds).
	MaxStale int
}

// ShouldRebuild implements RebuildPolicy.
func (p Staleness) ShouldRebuild(stale, live int) bool {
	return p.MaxStale > 0 && stale >= p.MaxStale
}

// DirtyFraction rebuilds when the mutations since the last rebuild
// exceed a fraction of the live registry — churn proportional to size
// amortizes the O(n²) rebuild against O(n) incremental updates, keeping
// the per-mutation cost linear.
type DirtyFraction struct {
	// Fraction of live subscriptions that may churn before a rebuild
	// (e.g. 0.25).
	Fraction float64
	// MinStale is a floor that stops tiny registries from rebuilding on
	// every mutation.
	MinStale int
}

// ShouldRebuild implements RebuildPolicy.
func (p DirtyFraction) ShouldRebuild(stale, live int) bool {
	if stale < p.MinStale {
		return false
	}
	return float64(stale) >= p.Fraction*float64(live)
}

// Never disables policy rebuilds; communities evolve purely
// incrementally (Engine.Rebuild remains available).
type Never struct{}

// ShouldRebuild implements RebuildPolicy.
func (Never) ShouldRebuild(stale, live int) bool { return false }
