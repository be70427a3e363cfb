package cluster

import (
	"reflect"
	"testing"
)

// blockMatrix builds a similarity matrix with two tight blocks
// {0,1,2} and {3,4} plus an outlier 5.
func blockMatrix() [][]float64 {
	n := 6
	sim := make([][]float64, n)
	for i := range sim {
		sim[i] = make([]float64, n)
		sim[i][i] = 1
	}
	set := func(i, j int, v float64) { sim[i][j], sim[j][i] = v, v }
	set(0, 1, 0.9)
	set(0, 2, 0.8)
	set(1, 2, 0.85)
	set(3, 4, 0.95)
	set(0, 3, 0.1)
	set(1, 4, 0.05)
	return sim
}

func TestGreedyBlocks(t *testing.T) {
	got := Greedy(blockMatrix(), 0.5)
	want := [][]int{{0, 1, 2}, {3, 4}, {5}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Greedy = %v, want %v", got, want)
	}
}

func TestGreedyCoversAllExactlyOnce(t *testing.T) {
	sim := blockMatrix()
	comms := Greedy(sim, 0.5)
	seen := make(map[int]int)
	for _, c := range comms {
		for _, i := range c {
			seen[i]++
		}
	}
	if len(seen) != len(sim) {
		t.Fatalf("covered %d of %d items", len(seen), len(sim))
	}
	for i, c := range seen {
		if c != 1 {
			t.Errorf("item %d appears %d times", i, c)
		}
	}
}

func TestGreedyThresholdExtremes(t *testing.T) {
	sim := blockMatrix()
	// Threshold 0: everything joins the first seed's community.
	all := Greedy(sim, 0)
	if len(all) != 1 || len(all[0]) != 6 {
		t.Errorf("threshold 0: %v", all)
	}
	// Threshold above 1: all singletons.
	solo := Greedy(sim, 1.01)
	if len(solo) != 6 {
		t.Errorf("threshold 1.01: %v", solo)
	}
}

func TestGreedyEmpty(t *testing.T) {
	if got := Greedy(nil, 0.5); len(got) != 0 {
		t.Errorf("Greedy(nil) = %v", got)
	}
}
