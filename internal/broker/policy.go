package broker

// RebuildPolicy decides when accumulated subscription churn warrants a
// wholesale refresh: the overlay's AdvertPolicy consults it after every
// registry mutation with the number of mutations since the last refresh
// (stale) and the current number of live subscriptions (live). The
// engine keeps Config.Rebuild only for callers that still set it.
type RebuildPolicy interface {
	ShouldRebuild(stale, live int) bool
}

// Staleness refreshes after a fixed number of registry mutations,
// regardless of registry size.
type Staleness struct {
	// MaxStale is the mutation budget between refreshes (≤ 0 never
	// refreshes).
	MaxStale int
}

// ShouldRebuild implements RebuildPolicy.
func (p Staleness) ShouldRebuild(stale, live int) bool {
	return p.MaxStale > 0 && stale >= p.MaxStale
}

// DirtyFraction refreshes when the mutations since the last refresh
// exceed a fraction of the live registry, so the per-mutation cost of a
// refresh that is linear in the registry stays constant.
type DirtyFraction struct {
	// Fraction of live subscriptions that may churn before a refresh
	// (e.g. 0.25).
	Fraction float64
	// MinStale is a floor that stops tiny registries from refreshing on
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

// Never disables policy refreshes.
type Never struct{}

// ShouldRebuild implements RebuildPolicy.
func (Never) ShouldRebuild(stale, live int) bool { return false }
