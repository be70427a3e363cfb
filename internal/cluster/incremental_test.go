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

func TestRemoveRenumbersAndPromotes(t *testing.T) {
	c := &Communities{Threshold: 0.5}
	c.Assign(nil)                      // 0 → group 0 (rep 0)
	c.Assign([]float64{0.9})           // 1 → group 0
	c.Assign([]float64{0.1, 0.2})      // 2 → group 1 (rep 2)
	c.Assign([]float64{0.8, 0.7, 0.0}) // 3 → group 0

	// Removing the representative of group 0 promotes the smallest
	// surviving member and renumbers 2→1, 3→2.
	c.Remove(0)
	if c.Len() != 3 {
		t.Fatalf("n=%d, want 3", c.Len())
	}
	want := [][]int{{0, 2}, {1}}
	if !reflect.DeepEqual(c.Groups, want) {
		t.Fatalf("groups %v, want %v", c.Groups, want)
	}
	if c.Reps[0] != 0 || c.Reps[1] != 1 {
		t.Fatalf("reps %v, want [0 1]", c.Reps)
	}

	// Removing the last member of a group deletes the group.
	c.Remove(1)
	if len(c.Groups) != 1 || !reflect.DeepEqual(c.Groups[0], []int{0, 1}) {
		t.Fatalf("groups %v, want [[0 1]]", c.Groups)
	}
	if c.Find(5) != -1 {
		t.Fatalf("Find(5) found a group for a nonexistent item")
	}
}

// TestChurnKeepsPartitionConsistent hammers Assign/Remove with random
// churn and checks structural invariants after every operation.
func TestChurnKeepsPartitionConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := &Communities{Threshold: 0.55}
	live := 0
	for op := 0; op < 2000; op++ {
		if live == 0 || rng.Float64() < 0.6 {
			row := make([]float64, live)
			for i := range row {
				row[i] = rng.Float64()
			}
			c.Assign(row)
			live++
		} else {
			c.Remove(rng.Intn(live))
			live--
		}
		if c.Len() != live {
			t.Fatalf("op %d: Len=%d, want %d", op, c.Len(), live)
		}
		seen := make(map[int]bool)
		for g, members := range c.Groups {
			if len(members) == 0 {
				t.Fatalf("op %d: empty group %d", op, g)
			}
			if !sort.IntsAreSorted(members) {
				t.Fatalf("op %d: group %d not sorted: %v", op, g, members)
			}
			repMember := false
			for _, m := range members {
				if m < 0 || m >= live {
					t.Fatalf("op %d: member %d out of range [0,%d)", op, m, live)
				}
				if seen[m] {
					t.Fatalf("op %d: item %d in two groups", op, m)
				}
				seen[m] = true
				if m == c.Reps[g] {
					repMember = true
				}
			}
			if !repMember {
				t.Fatalf("op %d: rep %d not a member of group %d %v", op, c.Reps[g], g, members)
			}
		}
		if len(seen) != live {
			t.Fatalf("op %d: %d items covered, want %d", op, len(seen), live)
		}
	}
}

func TestSortedLargestFirst(t *testing.T) {
	c := &Communities{Threshold: 0.5}
	c.Assign(nil)
	c.Assign([]float64{0.1})
	c.Assign([]float64{0.1, 0.9})
	c.Assign([]float64{0.1, 0.9, 0.9})
	s := c.Sorted()
	for i := 1; i < len(s); i++ {
		if len(s[i]) > len(s[i-1]) {
			t.Fatalf("Sorted not largest-first: %v", s)
		}
	}
}

func TestPlaceAtReplaysAssign(t *testing.T) {
	// Drive one clustering with Assign and a twin with the recorded
	// group decisions via PlaceAt: identical structure must come out.
	rows := [][]float64{
		nil,
		{0.9},
		{0.1, 0.2},
		{0.8, 0.1, 0.1},
		{0.1, 0.1, 0.9, 0.1},
		{0.1, 0.1, 0.1, 0.1, 0.1},
	}
	orig := &Communities{Threshold: 0.5}
	var decisions []int
	for _, row := range rows {
		decisions = append(decisions, orig.Assign(row))
	}
	replay := &Communities{Threshold: 0.5}
	for i, g := range decisions {
		if err := replay.PlaceAt(g); err != nil {
			t.Fatalf("PlaceAt op %d: %v", i, err)
		}
	}
	if replay.Len() != orig.Len() {
		t.Fatalf("Len = %d, want %d", replay.Len(), orig.Len())
	}
	if len(replay.Groups) != len(orig.Groups) {
		t.Fatalf("groups = %v, want %v", replay.Groups, orig.Groups)
	}
	for g := range orig.Groups {
		if replay.Reps[g] != orig.Reps[g] {
			t.Fatalf("rep[%d] = %d, want %d", g, replay.Reps[g], orig.Reps[g])
		}
		if len(replay.Groups[g]) != len(orig.Groups[g]) {
			t.Fatalf("group %d = %v, want %v", g, replay.Groups[g], orig.Groups[g])
		}
		for i := range orig.Groups[g] {
			if replay.Groups[g][i] != orig.Groups[g][i] {
				t.Fatalf("group %d = %v, want %v", g, replay.Groups[g], orig.Groups[g])
			}
		}
	}
}

func TestPlaceAtRejectsOutOfRange(t *testing.T) {
	c := &Communities{Threshold: 0.5}
	if err := c.PlaceAt(1); err == nil {
		t.Fatal("PlaceAt(1) on empty clustering should error")
	}
	if err := c.PlaceAt(-1); err == nil {
		t.Fatal("PlaceAt(-1) should error")
	}
	if err := c.PlaceAt(0); err != nil { // founds the first group
		t.Fatalf("PlaceAt(0): %v", err)
	}
	if c.Len() != 1 || len(c.Groups) != 1 || c.Reps[0] != 0 {
		t.Fatalf("after founding: %+v", c)
	}
}

func TestFromGroupsValidates(t *testing.T) {
	ok, err := FromGroups(0.5, [][]int{{2, 0}, {1}}, []int{0, 1})
	if err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
	if ok.Len() != 3 {
		t.Fatalf("Len = %d, want 3", ok.Len())
	}
	if g := ok.Groups[0]; g[0] != 0 || g[1] != 2 {
		t.Fatalf("members not sorted: %v", g)
	}
	if ok.Find(2) != 0 || ok.Find(1) != 1 {
		t.Fatal("Find disagrees with restored partition")
	}

	cases := []struct {
		name   string
		groups [][]int
		reps   []int
	}{
		{"rep count mismatch", [][]int{{0}}, []int{0, 0}},
		{"empty group", [][]int{{0}, {}}, []int{0, 0}},
		{"duplicate item", [][]int{{0, 1}, {1}}, []int{0, 1}},
		{"missing item", [][]int{{0}, {2}}, []int{0, 2}},
		{"rep not member", [][]int{{0}, {1}}, []int{0, 0}},
		{"negative index", [][]int{{-1, 0}}, []int{0}},
	}
	for _, tc := range cases {
		if _, err := FromGroups(0.5, tc.groups, tc.reps); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
}

func TestFromGroupsThenMaintain(t *testing.T) {
	// A restored clustering keeps working: PlaceAt and Remove maintain
	// the partition invariants on top of FromGroups.
	c, err := FromGroups(0.5, [][]int{{0, 2}, {1, 3}}, []int{0, 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.PlaceAt(0); err != nil { // item 4 joins group 0
		t.Fatal(err)
	}
	if err := c.PlaceAt(2); err != nil { // item 5 founds group 2
		t.Fatal(err)
	}
	c.Remove(3) // group 1's rep; item 1 promoted, 4→3 5→4 renumber
	if c.Len() != 5 {
		t.Fatalf("Len = %d, want 5", c.Len())
	}
	seen := map[int]bool{}
	for g, members := range c.Groups {
		repMember := false
		for _, m := range members {
			if seen[m] {
				t.Fatalf("item %d in two groups: %v", m, c.Groups)
			}
			seen[m] = true
			if m == c.Reps[g] {
				repMember = true
			}
		}
		if !repMember {
			t.Fatalf("rep %d not in group %d: %v", c.Reps[g], g, c.Groups)
		}
	}
	if len(seen) != 5 {
		t.Fatalf("partition covers %d items, want 5: %v", len(seen), c.Groups)
	}
}
