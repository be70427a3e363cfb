package cluster

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomSim returns a random similarity matrix with unit diagonal —
// symmetric (M2/M3-like) or asymmetric (M1-like).
func randomSim(n int, rng *rand.Rand, symmetric bool) [][]float64 {
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
		sim[i][i] = 1
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			sim[i][j] = rng.Float64()
			if symmetric {
				sim[j][i] = sim[i][j]
			} else {
				sim[j][i] = rng.Float64()
			}
		}
	}
	return sim
}

// canonical renders a partition as a sorted set of sorted member sets so
// two clusterings compare independent of group order.
func canonical(groups [][]int) [][]int {
	out := make([][]int, 0, len(groups))
	for _, g := range groups {
		cp := append([]int{}, g...)
		sort.Ints(cp)
		out = append(out, cp)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// TestAssignReplaysGreedy: feeding the items of a greedy clustering to
// Assign in seed-first community order reproduces the greedy partition
// exactly. This is the no-churn agreement guarantee: every greedy
// member has ≥-threshold similarity to its seed, and sub-threshold
// similarity to every earlier seed (otherwise that seed would have
// absorbed it), so the incremental placement rule makes the same
// choice greedy absorption made.
func TestAssignReplaysGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(40)
		// Odd trials use asymmetric matrices (M1-like): the agreement
		// must hold as long as Assign is fed the greedy direction
		// sim[existing][new].
		sim := randomSim(n, rng, trial%2 == 0)
		threshold := rng.Float64()

		groups, seeds := GreedySeeded(sim, threshold)

		// Replay order: per community, seed first, then the remaining
		// members. perm[k] is the original index of the k-th item fed in.
		var perm []int
		for g, members := range groups {
			perm = append(perm, seeds[g])
			for _, m := range members {
				if m != seeds[g] {
					perm = append(perm, m)
				}
			}
		}

		inc := &Communities{Threshold: threshold}
		for k, orig := range perm {
			// row[j] = sim[existing][new]: the orientation Assign is
			// specified to consume.
			row := make([]float64, k)
			for j := 0; j < k; j++ {
				row[j] = sim[perm[j]][orig]
			}
			inc.Assign(row)
		}

		// Map incremental indices (replay positions) back to original
		// item indices before comparing.
		mapped := make([][]int, len(inc.Groups))
		for g, members := range inc.Groups {
			for _, m := range members {
				mapped[g] = append(mapped[g], perm[m])
			}
		}
		if got, want := canonical(mapped), canonical(groups); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d, threshold=%.3f): replayed partition %v != greedy %v",
				trial, n, threshold, got, want)
		}
		// The incremental representatives must be the greedy seeds.
		for g := range inc.Groups {
			if perm[inc.Reps[g]] != seeds[g] {
				t.Fatalf("trial %d: group %d rep %d != seed %d", trial, g, perm[inc.Reps[g]], seeds[g])
			}
		}
	}
}

// greedySeededRef is the O(k·n²) greedy GreedySeeded replaced: every
// round recounts every unassigned item's degree from the matrix. Kept
// as the reference the incremental-degree version must reproduce.
func greedySeededRef(sim [][]float64, threshold float64) (groups [][]int, seeds []int) {
	n := len(sim)
	assigned := make([]bool, n)
	for remaining := n; remaining > 0; {
		seed, bestDeg := -1, -1
		for i := 0; i < n; i++ {
			if assigned[i] {
				continue
			}
			deg := 0
			for j := 0; j < n; j++ {
				if i != j && !assigned[j] && sim[i][j] >= threshold {
					deg++
				}
			}
			if deg > bestDeg {
				seed, bestDeg = i, deg
			}
		}
		comm := []int{seed}
		assigned[seed] = true
		for j := 0; j < n; j++ {
			if !assigned[j] && sim[seed][j] >= threshold {
				comm = append(comm, j)
				assigned[j] = true
			}
		}
		sort.Ints(comm)
		groups = append(groups, comm)
		seeds = append(seeds, seed)
		remaining -= len(comm)
	}
	return groups, seeds
}

// TestGreedySeededMatchesReference: the incremental-degree greedy
// returns the reference's groups and seeds exactly — same order, same
// first-index tie-break, same sim[i][j] / sim[seed][j] orientation — on
// symmetric and asymmetric (M1-like) matrices, coarse ones full of tied
// degrees and tied cells, at thresholds that admit every pair (0), some
// (0.5), only unit cells (1) and none (2).
func TestGreedySeededMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{0, 1, 2, 3, 7, 40, 300} {
		for _, symmetric := range []bool{true, false} {
			for _, levels := range []int{0, 2, 4} { // 0: continuous values
				sim := randomSim(n, rng, symmetric)
				if levels > 0 {
					for i := range sim {
						for j := range sim[i] {
							if i != j {
								sim[i][j] = float64(int(sim[i][j]*float64(levels))) / float64(levels-1)
							}
						}
					}
				}
				for _, threshold := range []float64{0, 0.5, 1, 2} {
					wantG, wantS := greedySeededRef(sim, threshold)
					gotG, gotS := GreedySeeded(sim, threshold)
					if !reflect.DeepEqual(gotG, wantG) || !reflect.DeepEqual(gotS, wantS) {
						t.Fatalf("n=%d symmetric=%v levels=%d threshold=%v:\ngroups %v seeds %v\nwant   %v seeds %v",
							n, symmetric, levels, threshold, gotG, gotS, wantG, wantS)
					}
				}
			}
		}
	}
}

// TestGreedyMatchesSeeded: the public Greedy is GreedySeeded reordered
// by size, nothing more.
func TestGreedyMatchesSeeded(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sim := randomSim(25, rng, true)
	g1 := Greedy(sim, 0.6)
	g2, seeds := GreedySeeded(sim, 0.6)
	if !reflect.DeepEqual(canonical(g1), canonical(g2)) {
		t.Fatalf("Greedy %v and GreedySeeded %v disagree", g1, g2)
	}
	for g, members := range g2 {
		found := false
		for _, m := range members {
			if m == seeds[g] {
				found = true
			}
		}
		if !found {
			t.Fatalf("seed %d not a member of its group %v", seeds[g], members)
		}
	}
}

func TestAssignBelowThresholdFoundsSingleton(t *testing.T) {
	c := &Communities{Threshold: 0.5}
	if g := c.Assign(nil); g != 0 {
		t.Fatalf("first item landed in group %d, want 0", g)
	}
	if g := c.Assign([]float64{0.2}); g != 1 {
		t.Fatalf("dissimilar item landed in group %d, want new group 1", g)
	}
	if g := c.Assign([]float64{0.9, 0.1}); g != 0 {
		t.Fatalf("similar item landed in group %d, want 0", g)
	}
	if c.Len() != 3 || len(c.Groups) != 2 {
		t.Fatalf("unexpected state: n=%d groups=%v", c.Len(), c.Groups)
	}
}

// TestAssignPrefersMostSimilarRep: with several eligible communities the
// item joins the one whose representative is most similar.
func TestAssignPrefersMostSimilarRep(t *testing.T) {
	c := &Communities{Threshold: 0.3}
	c.Assign(nil)                      // item 0 → group 0
	c.Assign([]float64{0.1})           // item 1 → group 1
	g := c.Assign([]float64{0.4, 0.8}) // eligible for both; rep 1 closer
	if g != 1 {
		t.Fatalf("item joined group %d, want 1", g)
	}
}

// TestChurnKeepsPartitionConsistent drives Communities through the
// lifecycle a live broker gives its clustering — a long seeded run of
// Assigns with a greedy rebuild (GreedySeeded over every item so far)
// now and then — and checks the partition after every operation: each
// group nonempty, sorted and holding its representative, every item in
// exactly one group, every member at or above the threshold from its
// representative, and a founder below it from every earlier one.
// Departures are the broker's (TestChurnReplaysToSamePlacement there).
func TestChurnKeepsPartitionConsistent(t *testing.T) {
	const n, threshold = 400, 0.55
	rng := rand.New(rand.NewSource(3))
	sim := randomSim(n, rng, false)
	c := &Communities{Threshold: threshold}
	rebuilds := 0
	for op := 0; c.Len() < n; op++ {
		if c.Len() > 0 && rng.Float64() < 0.05 {
			sub := make([][]float64, c.Len())
			for i := range sub {
				sub[i] = sim[i][:c.Len()]
			}
			groups, seeds := GreedySeeded(sub, threshold)
			c = &Communities{Threshold: threshold, Groups: groups, Reps: seeds, n: c.Len()}
			rebuilds++
		} else {
			idx := c.Len()
			row := make([]float64, idx)
			for i := range row {
				row[i] = sim[i][idx]
			}
			reps := append([]int{}, c.Reps...)
			if g := c.Assign(row); g == len(reps) {
				for _, r := range reps {
					if row[r] >= threshold {
						t.Fatalf("op %d: item %d founded a group though rep %d is at %.3f", op, idx, r, row[r])
					}
				}
			}
		}
		live := c.Len()
		if len(c.Reps) != len(c.Groups) {
			t.Fatalf("op %d: %d reps for %d groups", op, len(c.Reps), len(c.Groups))
		}
		seen := make(map[int]bool)
		for g, members := range c.Groups {
			if len(members) == 0 {
				t.Fatalf("op %d: empty group %d", op, g)
			}
			if !sort.IntsAreSorted(members) {
				t.Fatalf("op %d: group %d not sorted: %v", op, g, members)
			}
			rep, repMember := c.Reps[g], false
			for _, m := range members {
				if m < 0 || m >= live {
					t.Fatalf("op %d: member %d out of range [0,%d)", op, m, live)
				}
				if seen[m] {
					t.Fatalf("op %d: item %d in two groups", op, m)
				}
				seen[m] = true
				if m == rep {
					repMember = true
				} else if sim[rep][m] < threshold {
					t.Fatalf("op %d: member %d of group %d at %.3f from rep %d", op, m, g, sim[rep][m], rep)
				}
			}
			if !repMember {
				t.Fatalf("op %d: rep %d not a member of group %d %v", op, rep, g, members)
			}
		}
		if len(seen) != live {
			t.Fatalf("op %d: %d items covered, want %d", op, len(seen), live)
		}
	}
	if rebuilds == 0 {
		t.Fatal("the run made no rebuild")
	}
}

// TestSortedLargestFirst: Greedy returns GreedySeeded's communities
// sorted largest first, and communities of equal size keep their
// seeding order.
func TestSortedLargestFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		sim := randomSim(1+rng.Intn(60), rng, trial%2 == 0)
		threshold := rng.Float64()
		got := Greedy(sim, threshold)
		seeded, _ := GreedySeeded(sim, threshold)
		order := make(map[int]int, len(seeded)) // first member → seeding position
		for g, members := range seeded {
			order[members[0]] = g
		}
		for i := 1; i < len(got); i++ {
			if len(got[i]) > len(got[i-1]) {
				t.Fatalf("trial %d: not largest first: %v", trial, got)
			}
			if len(got[i]) == len(got[i-1]) && order[got[i][0]] < order[got[i-1][0]] {
				t.Fatalf("trial %d: equal-size communities out of seeding order: %v (seeded %v)", trial, got, seeded)
			}
		}
	}
}

// TestPlaceAtReplaysAssign: a caller that keeps its own communities and
// places each item by Place over its own representatives — as the
// broker's subscribe does — makes Assign's decisions, and replaying the
// recorded decisions alone (join g, or found the next community when g
// is the community count — as the broker replays its journal) rebuilds
// the same partition with the same representatives.
func TestPlaceAtReplaysAssign(t *testing.T) {
	rows := [][]float64{
		nil,
		{0.9},
		{0.1, 0.2},
		{0.8, 0.1, 0.1},
		{0.1, 0.1, 0.9, 0.1},
		{0.1, 0.1, 0.1, 0.1, 0.1},
	}
	rng := rand.New(rand.NewSource(9))
	for len(rows) < 80 {
		row := make([]float64, len(rows))
		for i := range row {
			row[i] = rng.Float64()
		}
		rows = append(rows, row)
	}
	orig := &Communities{Threshold: 0.5}
	var placedGroups [][]int
	var placedReps, decisions []int
	for idx, row := range rows {
		g := Place(len(placedReps), 0.5, func(g int) float64 { return row[placedReps[g]] })
		if g == -1 {
			g = len(placedGroups)
			placedGroups, placedReps = append(placedGroups, nil), append(placedReps, idx)
		}
		placedGroups[g] = append(placedGroups[g], idx)
		if want := orig.Assign(row); g != want {
			t.Fatalf("item %d: Place chose %d, Assign %d", idx, g, want)
		}
		decisions = append(decisions, g)
	}
	var replayGroups [][]int
	var replayReps []int
	for idx, g := range decisions {
		if g == len(replayGroups) {
			replayGroups, replayReps = append(replayGroups, nil), append(replayReps, idx)
		}
		replayGroups[g] = append(replayGroups[g], idx)
	}
	for _, got := range []struct {
		name   string
		groups [][]int
		reps   []int
	}{{"Place", placedGroups, placedReps}, {"replay", replayGroups, replayReps}} {
		if !reflect.DeepEqual(got.groups, orig.Groups) || !reflect.DeepEqual(got.reps, orig.Reps) {
			t.Fatalf("%s: groups %v reps %v, Assign %v reps %v", got.name, got.groups, got.reps, orig.Groups, orig.Reps)
		}
	}
}

// TestPlaceAtRejectsOutOfRange: Place reads sim only for communities
// 0..k-1 and answers -1 or one of them — -1 with no community to join,
// or none at the threshold; a similarity exactly at the threshold
// joins, and a tie goes to the earlier community.
func TestPlaceAtRejectsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		sims []float64
		want int
	}{
		{"no communities", nil, -1},
		{"all below", []float64{0.1, 0.49, 0}, -1},
		{"at the threshold", []float64{0.1, 0.5}, 1},
		{"most similar", []float64{0.6, 0.9, 0.7}, 1},
		{"tie to the earlier", []float64{0.2, 0.8, 0.8}, 1},
	} {
		got := Place(len(tc.sims), 0.5, func(g int) float64 {
			if g < 0 || g >= len(tc.sims) {
				t.Fatalf("%s: sim(%d) read outside [0,%d)", tc.name, g, len(tc.sims))
			}
			return tc.sims[g]
		})
		if got != tc.want {
			t.Errorf("%s: Place = %d, want %d", tc.name, got, tc.want)
		}
	}
}
