package matchset

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHashValueSurvivesStoreMutation: a hash store's Value shares the
// sample's packed bytes, so every way the store can change afterwards — appends,
// out-of-order inserts, removals at the front, in the middle and of
// absent ids, overflow into the next level, SetTo — must leave a Value
// taken earlier reading exactly what it read.
func TestHashValueSurvivesStoreMutation(t *testing.T) {
	f := hashFactory(32, 11)
	st := f.NewStore()
	rng := rand.New(rand.NewSource(2))
	type snapshot struct {
		v      *hashValue
		level  int
		copied []uint64
	}
	var snaps []snapshot
	next := uint64(500)
	for step := 0; step < 400; step++ {
		v := st.Value().(*hashValue)
		snaps = append(snaps, snapshot{v, v.level, v.ids.AppendTo(nil)})
		switch op := rng.Intn(8); {
		case op < 4:
			next++
			st.Add(next)
		case op == 4:
			st.Add(uint64(rng.Intn(500)))
		case op < 7 && v.ids.Len() > 0:
			ids := v.ids.AppendTo(nil)
			st.Remove([]uint64{ids[0], ids[len(ids)/2], next + 9}[rng.Intn(3)])
		default:
			st.SetTo(st.Value().Union(NewHashValue(f.hasher, 0, uint64(rng.Intn(500)), next+1)))
		}
	}
	for i, sn := range snaps {
		if got := sn.v.ids.AppendTo(nil); sn.v.level != sn.level || !slices.Equal(got, sn.copied) {
			t.Fatalf("Value taken before step %d changed: level %d %v, was level %d %v", i, sn.v.level, got, sn.level, sn.copied)
		}
	}
}

// TestHashSnapshotsReadBesideTheStream is the -race hammer for the byte
// discipline: readers intersect whatever snapshots the writer last
// published while the writer keeps appending in place, inserting out of
// order, expiring the oldest id and overflowing into new levels. A write
// below the length of a published list is a reported race.
func TestHashSnapshotsReadBesideTheStream(t *testing.T) {
	f := hashFactory(48, 3)
	a, b := f.NewStore(), f.NewStore()
	type pair struct{ a, b Value }
	var latest atomic.Pointer[pair]
	latest.Store(&pair{a.Value(), b.Value()})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				p := latest.Load()
				card := IntersectCard(p.a, p.b)
				if want := p.a.Intersect(p.b).Card(); card != want {
					t.Errorf("IntersectCard = %v beside the stream, Intersect.Card = %v", card, want)
					return
				}
				if ids := p.a.(*hashValue).ids.AppendTo(nil); !slices.IsSorted(ids) {
					t.Errorf("snapshot no longer sorted: %v", ids)
					return
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(1))
	for id := uint64(1000); id < 21000; id++ {
		a.Add(id)
		if id%2 == 0 {
			b.Add(id)
		}
		switch rng.Intn(16) {
		case 0:
			a.Add(uint64(rng.Intn(1000)))
		case 1:
			if ids := a.Value().(*hashValue).ids.AppendTo(nil); len(ids) > 0 {
				a.Remove(ids[0])
			}
		}
		latest.Store(&pair{a.Value(), b.Value()})
	}
	close(stop)
	wg.Wait()
}
